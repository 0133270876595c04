package disk

// Pack images. A drive's pack can be saved to and restored from a byte
// stream, which is how the cmd/altofs and cmd/altoexec tools persist a
// simulated disk between runs — the moral equivalent of a removable pack.
//
// The format is deliberately simple and fully self-describing: a magic
// string, the geometry, the pack number, then every sector (header, label,
// value, bad flag) in address order, all in big-endian 16-bit words.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"altoos/internal/sim"
)

const (
	imageMagic   = "ALTOPACK"
	imageVersion = uint16(1)
)

// ErrImage reports a malformed pack image.
var ErrImage = errors.New("disk: bad pack image")

// SaveImage writes the drive's pack to w.
func (d *Drive) SaveImage(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	hdr := []uint16{
		imageVersion,
		uint16(d.geom.Cylinders),
		uint16(d.geom.Heads),
		uint16(d.geom.SectorsPerTrack),
		uint16(d.geom.RevTime / time.Microsecond / 100), // units of 100us
		uint16(d.geom.SeekSettle / time.Microsecond / 100),
		uint16(d.geom.SeekPerCyl / time.Microsecond),
		d.pack,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	if err := writeString(bw, d.geom.Name); err != nil {
		return err
	}
	for i := 0; i < d.nsector; i++ {
		var err error
		if s := d.at(VDA(i)); s != nil {
			err = writeSector(bw, s.header[:], s.label[:], s.value[:], s.bad)
		} else {
			// Never written: the format pattern, read in place.
			h := Header{Pack: d.pack, Addr: VDA(i)}.Words()
			err = writeSector(bw, h[:], freeLabelWords[:], onesValue[:], false)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadImage reads a pack image from r and returns a drive holding it. The
// clock may be shared; if nil a new one is created.
func LoadImage(r io.Reader, clock *sim.Clock) (*Drive, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrImage, magic)
	}
	var hdr [8]uint16
	for i := range hdr {
		if err := binary.Read(br, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrImage, err)
		}
	}
	if hdr[0] != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrImage, hdr[0])
	}
	name, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	g := Geometry{
		Name:            name,
		Cylinders:       int(hdr[1]),
		Heads:           int(hdr[2]),
		SectorsPerTrack: int(hdr[3]),
		RevTime:         time.Duration(hdr[4]) * 100 * time.Microsecond,
		SeekSettle:      time.Duration(hdr[5]) * 100 * time.Microsecond,
		SeekPerCyl:      time.Duration(hdr[6]) * time.Microsecond,
	}
	d, err := NewDrive(g, hdr[7], clock)
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.nsector; i++ {
		var s sector
		if err := binary.Read(br, binary.BigEndian, s.header[:]); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		if err := binary.Read(br, binary.BigEndian, s.label[:]); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		if err := binary.Read(br, binary.BigEndian, s.value[:]); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		s.bad = b != 0
		// Loading an image is a disciplined path: the checksum reflects the
		// value as loaded, so only post-load damage can trip it. A sector
		// that still holds the format pattern stays unstored.
		s.vcrc = valueCRC(s.value[:])
		if s != formatted(d.pack, VDA(i)) {
			*d.touch(VDA(i)) = s
		}
	}
	d.vcrcValid = true
	return d, nil
}

// writeSector writes one sector's image record: header, label, value and
// the bad flag.
func writeSector(w *bufio.Writer, hdr, lbl, val []Word, bad bool) error {
	if err := binary.Write(w, binary.BigEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, lbl); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, val); err != nil {
		return err
	}
	b := byte(0)
	if bad {
		b = 1
	}
	return w.WriteByte(b)
}

func writeString(w *bufio.Writer, s string) error {
	if len(s) > 0xFF {
		s = s[:0xFF]
	}
	if err := w.WriteByte(byte(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := r.ReadByte()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
