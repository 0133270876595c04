package fileserver

// The digest RPC is the wire half of the cluster's distributed Scavenger
// (§3.5 grown across machines): a replica answers MsgDigest with one record
// per file in its root directory — enough for a peer to decide, without
// moving any file data, whether the two copies agree and which of them is
// trustworthy. The content checksum folds every page's value words with the
// drive's own per-sector checksum fold (disk.ValueCRC), and the Clean bit
// reports whether the drive's recorded per-sector checksums still match the
// values just read — false means damage happened outside the disciplined
// write path on *this* replica, so a digest disagreement can be blamed
// locally instead of by vote alone.

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
)

// Digest summarizes one file for the peer-audit protocol.
type Digest struct {
	Name    string
	Size    int           // bytes, as the leader records them
	CRC     disk.Word     // order-sensitive fold of every page's value CRC
	Written time.Duration // leader write stamp, ms precision on the wire
	Clean   bool          // every page's recorded sector checksum matched
}

// DigestTable reads every file named in fs's root directory and returns its
// digests sorted by name. Reading every page charges the disk time a local
// Scavenger pass would (§3.5); digesting is scrubbing. A replica runs it
// directly for its own copy; the server runs it to answer MsgDigest.
func DigestTable(fs *file.FS) ([]Digest, error) {
	root, err := dir.OpenRoot(fs)
	if err != nil {
		return nil, fmt.Errorf("no root directory")
	}
	entries, err := root.Load()
	if err != nil {
		return nil, fmt.Errorf("root directory unreadable")
	}
	slices.SortFunc(entries, func(a, b dir.Entry) int { return strings.Compare(a.Name, b.Name) })
	drv, _ := fs.Device().(*disk.Drive)
	out := make([]Digest, 0, len(entries))
	var pages int64
	var buf [disk.PageWords]disk.Word // one page buffer for the whole table
	f := new(file.File)               // and one handle, re-primed per file
	for _, e := range entries {
		// The directory and descriptor are per-pack state, not replicated
		// content: their bytes legitimately differ across honest replicas
		// (free maps, local leader addresses), so they never enter the audit.
		if e.FN.FV.FID == disk.SysDirFID || e.FN.FV.FID == disk.DescriptorFID {
			continue
		}
		if err := fs.OpenInto(f, e.FN); err != nil {
			return nil, fmt.Errorf("open %q failed", e.Name)
		}
		d := Digest{Name: e.Name, Size: f.Size(), Written: f.Leader().Written, Clean: true}
		lastPN := f.LastPN()
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			if _, err := f.ReadPage(pn, &buf); err != nil {
				return nil, fmt.Errorf("digest %q page %d failed", e.Name, pn)
			}
			pages++
			pageCRC := disk.ValueCRC(buf[:])
			d.CRC = d.CRC<<1 | d.CRC>>15
			d.CRC ^= pageCRC
			if drv != nil {
				if addr, err := f.PageAddr(pn); err == nil {
					if rec, ok := drv.PeekVCRC(addr); ok && rec != pageCRC {
						d.Clean = false
					}
				}
			}
		}
		out = append(out, d)
	}
	if drv != nil {
		drv.TraceRecorder().Add(cScrubPages, pages)
	}
	return out, nil
}

// digestTable is the serve-side half of MsgDigest: the table, serialized.
func (s *Server) digestTable() ([]byte, error) {
	digs, err := DigestTable(s.fs)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, d := range digs {
		out = appendDigest(out, d)
	}
	return out, nil
}

// longName escapes a name length byte: a 16-bit length follows. Directory
// names run to 498 bytes; shorter ones keep the one-byte length.
const longName = 0xFF

// appendDigest serializes one record: name length and bytes, 32-bit size,
// the checksum word, the write stamp in milliseconds, the Clean bit.
func appendDigest(out []byte, d Digest) []byte {
	if n := len(d.Name); n < longName {
		out = append(out, byte(n))
	} else {
		out = append(out, longName, byte(n>>8), byte(n))
	}
	out = append(out, d.Name...)
	out = append(out, byte(d.Size>>24), byte(d.Size>>16), byte(d.Size>>8), byte(d.Size))
	out = append(out, byte(d.CRC>>8), byte(d.CRC))
	ms := d.Written.Milliseconds()
	out = append(out, byte(ms>>24), byte(ms>>16), byte(ms>>8), byte(ms))
	if d.Clean {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// ParseDigests decodes a serialized digest table, name order preserved.
func ParseDigests(data []byte) ([]Digest, error) {
	var out []Digest
	for len(data) > 0 {
		n, at := int(data[0]), 1
		if n == longName {
			if len(data) < 3 {
				return nil, fmt.Errorf("%w: truncated digest table", ErrProtocol)
			}
			n, at = int(data[1])<<8|int(data[2]), 3
		}
		if len(data) < at+n+11 {
			return nil, fmt.Errorf("%w: truncated digest table", ErrProtocol)
		}
		d := Digest{Name: string(data[at : at+n])}
		p := data[at+n:]
		d.Size = int(p[0])<<24 | int(p[1])<<16 | int(p[2])<<8 | int(p[3])
		d.CRC = disk.Word(p[4])<<8 | disk.Word(p[5])
		ms := int64(p[6])<<24 | int64(p[7])<<16 | int64(p[8])<<8 | int64(p[9])
		d.Written = time.Duration(ms) * time.Millisecond
		d.Clean = p[10] == 1
		out = append(out, d)
		data = p[11:]
	}
	return out, nil
}

// Digests asks the server for its digest table. Poll until Done, then hand
// Result's bytes to ParseDigests.
func (c *Client) Digests() error {
	if err := c.begin(); err != nil {
		return err
	}
	c.outq = append(c.outq, []ether.Word{MsgDigest})
	return nil
}
