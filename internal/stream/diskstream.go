package stream

import (
	"errors"
	"fmt"

	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/mem"
	"altoos/internal/trace"
	"altoos/internal/zone"
)

// The counters and histograms this package records, interned once.
var (
	cClose = trace.NewCounter("stream.close")
	cOpen  = trace.NewCounter("stream.open")
)

// Mode selects a disk stream's direction.
type Mode int

const (
	// ReadMode streams an existing file's bytes.
	ReadMode Mode = iota
	// WriteMode truncates the file and streams new bytes into it.
	WriteMode
	// UpdateMode allows both, with Seek.
	UpdateMode
)

// DiskStream is the standard disk-file stream: a byte stream over a file,
// buffering one page at a time. Its page buffer is acquired from a zone in
// simulated main memory — the paper's disk-stream constructor "takes as
// parameters two other objects: a disk object which implements operations to
// access the storage on which the file resides, and a zone object which is
// used to acquire and release working storage" (§2). The disk object is
// carried by the file handle.
type DiskStream struct {
	f    *file.File
	z    zone.Zone
	m    *mem.Memory
	buf  mem.Addr // PageWords words of buffer in simulated memory
	mode Mode

	pn      disk.Word // buffered page number; 0 = nothing buffered
	pageLen int       // valid bytes in the buffered page
	pos     int       // absolute byte position in the file
	dirty   bool
	closed  bool

	// Chained-transfer windows — the controller's scatter/gather staging,
	// distinct from the zone-backed working page above. A sequential reader
	// prefetches a run of interior pages as one chain; a sequential updater
	// collects rewritten interior pages and writes them back as one chain.
	ra      [windowPages][disk.PageWords]disk.Word // read-ahead (ReadMode only)
	raStart disk.Word                              // first page in ra; 0 = empty
	raN     int
	seqNext disk.Word                              // page that would continue a sequential read
	wb      [windowPages][disk.PageWords]disk.Word // write-behind (UpdateMode only)
	wbStart disk.Word                              // first page in wb; 0 = empty
	wbN     int

	// stage carries a single page between the disk and the working page: a
	// page read lands here before it is stored into memory, and a page
	// flushed is loaded from memory here before it is written.
	stage [disk.PageWords]disk.Word
}

// windowPages bounds both transfer windows: one chain moves at most this
// many pages, so a window costs 4 KB of staging and the drive still gets
// runs long enough to stream a whole track side.
const windowPages = 8

var (
	_ Stream     = (*DiskStream)(nil)
	_ Positioner = (*DiskStream)(nil)
	_ Flusher    = (*DiskStream)(nil)
)

// NewDisk opens a stream over f. The zone and memory provide the working
// storage for the page buffer, in the open style: callers pick the zone; the
// system's core supplies its free-storage zone by default.
func NewDisk(f *file.File, z zone.Zone, m *mem.Memory, mode Mode) (*DiskStream, error) {
	a, err := z.Alloc(disk.PageWords)
	if err != nil {
		return nil, fmt.Errorf("stream: no room for page buffer: %w", err)
	}
	s := &DiskStream{f: f, z: z, m: m, buf: a, mode: mode}
	if mode == WriteMode {
		if err := f.Truncate(1, 0); err != nil {
			z.Free(a)
			return nil, err
		}
	}
	dev := f.Device()
	if rec := trace.Of(dev); rec != nil {
		rec.Emit(dev.Clock().Now(), trace.KindStreamOpen, f.Name(), int64(f.FN().FV.FID), int64(mode))
		rec.Add(cOpen, 1)
	}
	return s, nil
}

// loadPage brings page pn into the buffer, flushing the old one.
func (s *DiskStream) loadPage(pn disk.Word) error {
	if s.pn == pn {
		return nil
	}
	if err := s.flushBuf(); err != nil {
		return err
	}
	// A page sitting in the write-behind window is newer than the disk.
	if s.wbN > 0 && pn >= s.wbStart && pn < s.wbStart+disk.Word(s.wbN) {
		s.fill(&s.wb[pn-s.wbStart], disk.PageBytes)
		s.pn = pn
		return nil
	}
	// A page in the read-ahead window needs no disk operation.
	if s.raN > 0 && pn >= s.raStart && pn < s.raStart+disk.Word(s.raN) {
		s.fill(&s.ra[pn-s.raStart], disk.PageBytes)
		s.pn = pn
		s.seqNext = pn + 1
		return nil
	}
	// Sequential reading of interior pages prefetches a run as one chained
	// transfer: the drive makes a single scheduling decision for the window.
	if s.mode == ReadMode && pn == s.seqNext && pn >= 1 {
		if k := int(s.f.LastPN()) - int(pn); k >= 2 {
			if k > windowPages {
				k = windowPages
			}
			if err := s.f.ReadPages(pn, s.ra[:k]); err == nil {
				s.raStart, s.raN = pn, k
				s.fill(&s.ra[0], disk.PageBytes)
				s.pn = pn
				s.seqNext = pn + 1
				return nil
			}
			// Fall through to the single-page ladder on any trouble.
		}
	}
	n, err := s.f.ReadPage(pn, &s.stage)
	if err != nil {
		return err
	}
	s.fill(&s.stage, n)
	s.pn = pn
	s.seqNext = pn + 1
	return nil
}

// fill copies a page into the zone-backed buffer.
func (s *DiskStream) fill(v *[disk.PageWords]disk.Word, n int) {
	s.m.StoreBlock(s.buf, v[:])
	s.pageLen = n
}

// Flush writes the buffered page and drains the write-behind window, so
// everything the stream holds is on the disk when it returns.
func (s *DiskStream) Flush() error {
	if err := s.flushBuf(); err != nil {
		return err
	}
	return s.flushPending()
}

// flushBuf retires the buffered page if it has unwritten changes. A full
// interior page rewritten in UpdateMode joins the write-behind window when it
// extends the window's run; anything else is written immediately (after the
// window, to keep writes in order).
func (s *DiskStream) flushBuf() error {
	if !s.dirty || s.pn == 0 {
		return nil
	}
	s.m.LoadBlock(s.buf, s.stage[:])
	lastPN := s.f.LastPN()
	length := s.pageLen
	if s.pn < lastPN {
		length = disk.PageBytes
	}
	if s.mode == UpdateMode && s.pn < lastPN &&
		(s.wbN == 0 || s.pn == s.wbStart+disk.Word(s.wbN)) && s.wbN < windowPages {
		if s.wbN == 0 {
			s.wbStart = s.pn
		}
		s.wb[s.wbN] = s.stage
		s.wbN++
		s.dirty = false
		if s.wbN == windowPages {
			return s.flushPending()
		}
		return nil
	}
	if err := s.flushPending(); err != nil {
		return err
	}
	if err := s.f.WritePage(s.pn, &s.stage, length); err != nil {
		return err
	}
	s.dirty = false
	if length == disk.PageBytes && s.pn == lastPN {
		// The write appended a fresh empty page; our notion of the file's
		// shape is refreshed lazily on the next loadPage.
		s.pn = 0
	}
	return nil
}

// flushPending writes the write-behind window as one chained transfer.
func (s *DiskStream) flushPending() error {
	if s.wbN == 0 {
		return nil
	}
	n := s.wbN
	s.wbN = 0
	return s.f.WritePages(s.wbStart, s.wb[:n])
}

// bufByte reads byte i of the buffered page.
func (s *DiskStream) bufByte(i int) byte {
	w := s.m.Load(s.buf + mem.Addr(i/2))
	if i%2 == 0 {
		return byte(w >> 8)
	}
	return byte(w)
}

// setBufByte writes byte i of the buffered page.
func (s *DiskStream) setBufByte(i int, b byte) {
	a := s.buf + mem.Addr(i/2)
	w := s.m.Load(a)
	if i%2 == 0 {
		w = w&0x00FF | uint16(b)<<8
	} else {
		w = w&0xFF00 | uint16(b)
	}
	s.m.Store(a, w)
}

// pageFor returns the page number holding byte position pos.
func pageFor(pos int) (disk.Word, int) {
	//altovet:allow wordwidth callers bound pos by Len(), and page numbers fit a Word on any admissible disk
	return disk.Word(pos/disk.PageBytes + 1), pos % disk.PageBytes
}

// Get implements Stream.
func (s *DiskStream) Get() (Item, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if s.mode == WriteMode {
		return 0, ErrWriteOnly
	}
	if s.pos >= s.Len() {
		return 0, ErrEnd
	}
	pn, off := pageFor(s.pos)
	if err := s.loadPage(pn); err != nil {
		return 0, err
	}
	if off >= s.pageLen {
		return 0, ErrEnd
	}
	b := s.bufByte(off)
	s.pos++
	return b, nil
}

// Put implements Stream.
func (s *DiskStream) Put(b Item) error {
	if s.closed {
		return ErrClosed
	}
	if s.mode == ReadMode {
		return ErrReadOnly
	}
	pn, off := pageFor(s.pos)
	lastPN := s.f.LastPN()
	if pn > lastPN {
		return fmt.Errorf("stream: put past end at %d", s.pos)
	}
	if err := s.loadPage(pn); err != nil {
		return err
	}
	s.setBufByte(off, b)
	s.dirty = true
	s.pos++
	if off+1 > s.pageLen {
		s.pageLen = off + 1
	}
	// Filling the last page flushes it immediately, which also extends the
	// file (allocation happens exactly when a page fills, as on the Alto).
	if s.pageLen == disk.PageBytes && pn == lastPN {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// EndOf implements Stream.
func (s *DiskStream) EndOf() bool { return s.pos >= s.Len() }

// Reset implements Stream: back to the beginning.
func (s *DiskStream) Reset() error {
	if s.closed {
		return ErrClosed
	}
	if err := s.Flush(); err != nil {
		return err
	}
	s.pos = 0
	return nil
}

// Pos implements Positioner.
func (s *DiskStream) Pos() int { return s.pos }

// Len implements Positioner.
func (s *DiskStream) Len() int {
	if s.dirty {
		// Count unflushed growth of the last page.
		lastPN, lastLen := s.f.LastPage()
		if s.pn == lastPN && s.pageLen > lastLen {
			return s.f.Size() + (s.pageLen - lastLen)
		}
	}
	return s.f.Size()
}

// Seek implements Positioner.
func (s *DiskStream) Seek(pos int) error {
	if s.closed {
		return ErrClosed
	}
	if pos < 0 || pos > s.Len() {
		return fmt.Errorf("stream: seek to %d outside [0, %d]", pos, s.Len())
	}
	s.pos = pos
	return nil
}

// Close implements Stream: flush, sync the leader, release the buffer.
func (s *DiskStream) Close() error {
	if s.closed {
		return nil
	}
	flushErr := s.Flush()
	syncErr := s.f.Sync()
	freeErr := s.z.Free(s.buf)
	s.closed = true
	dev := s.f.Device()
	if rec := trace.Of(dev); rec != nil {
		rec.Emit(dev.Clock().Now(), trace.KindStreamClose, s.f.Name(), int64(s.f.FN().FV.FID), int64(s.mode))
		rec.Add(cClose, 1)
	}
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return freeErr
}

// File returns the underlying file handle.
func (s *DiskStream) File() *file.File { return s.f }

// errors.Is support sanity: ensure we wrap the sentinel properly elsewhere.
var _ = errors.Is
