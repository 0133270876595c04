package file

import (
	"errors"
	"fmt"

	"altoos/internal/disk"
)

// File is an open file: a handle holding the full name, a cached copy of the
// leader, and hint addresses for pages already visited. Everything cached is
// a hint; the disk labels remain the only truth, and every access verifies
// them in passing.
type File struct {
	fs  *FS
	fn  FN
	ldr Leader

	// hints holds the believed address of each page, indexed by page
	// number; disk.NilVDA means no hint. hints[0] duplicates fn.Leader. Any
	// entry may be wrong at any time; a failed label check drops it. The
	// vector starts in hintBuf, so a handle on a file of up to inlineHints
	// pages costs no allocation beyond itself, and grows by append past it.
	hints   []disk.VDA
	hintBuf [inlineHints]disk.VDA

	lastPN  disk.Word // page number of the last page
	lastLen int       // bytes in the last page (< PageBytes)
	dirty   bool      // leader needs rewriting
	deleted bool

	// sc holds the handle's reusable disk-op storage. A handle is not safe
	// for concurrent use, so one set suffices, and the page fast path then
	// allocates nothing in steady state.
	sc fileScratch
}

// fileScratch is reusable operation, pattern and value storage for a
// handle's disk traffic. Recovery paths (directory resolution, scavenging)
// run through their own freshly opened handles, so the scratch is never
// re-entered while an access is in flight.
type fileScratch struct {
	op  disk.Op
	pat [disk.LabelWords]disk.Word
	val [disk.PageWords]disk.Word
	dsk disk.OpScratch

	// lop and lpat serve readLabel. They are apart from op and pat because
	// locateByLinks reads labels while access still holds those.
	lop  disk.Op
	lpat [disk.LabelWords]disk.Word
}

// inlineHints is the number of page hints a handle holds without
// allocating: the leader and 39 data pages, so a 32-page file moves
// without a second allocation.
const inlineHints = 40

// zeroPage is the shared all-zero value written into freshly allocated
// pages. Write actions only read the caller's buffer.
var zeroPage [disk.PageWords]disk.Word

// FN returns the file's full name.
func (f *File) FN() FN { return f.fn }

// Device returns the disk object the file lives on. Layers built above file
// handles (streams, the swapper) reach shared per-device state — notably the
// flight recorder — through it.
func (f *File) Device() disk.Device { return f.fs.dev }

// Leader returns the cached leader contents.
func (f *File) Leader() Leader { return f.ldr }

// Name returns the file's leader name, its self-identification.
func (f *File) Name() string { return f.ldr.Name }

// LastPage returns the current last page number and its byte count.
func (f *File) LastPage() (pn disk.Word, length int) { return f.lastPN, f.lastLen }

// LastPN returns the current last page number alone. Callers that do not
// need the byte count use this rather than discarding it: the length is
// load-bearing in page-boundary arithmetic, and altovet's errdiscard
// analyzer treats a blank-discarded LastPage result as a finding.
func (f *File) LastPN() disk.Word { return f.lastPN }

// Size returns the number of data bytes in the file (pages 1..last).
func (f *File) Size() int {
	return (int(f.lastPN)-1)*disk.PageBytes + f.lastLen
}

// ForgetHints discards every cached page address except none at all — even
// the leader hint survives only in the full name. Used by tests and the
// hint-ladder experiment to force recovery paths.
func (f *File) ForgetHints() {
	f.resetHints(f.fn.Leader)
}

// SetHint plants a page-address hint, e.g. from an installed program's state
// file. The hint need not be correct. SetHint(pn, disk.NilVDA) drops the
// hint for pn: NilVDA is never a page address, so it means "no hint".
func (f *File) SetHint(pn disk.Word, a disk.VDA) {
	f.setHint(pn, a)
}

// Hint returns the cached address for a page, if any.
func (f *File) Hint(pn disk.Word) (disk.VDA, bool) {
	a := f.hint(pn)
	return a, a != disk.NilVDA
}

// hint returns the cached address of page pn, or disk.NilVDA.
func (f *File) hint(pn disk.Word) disk.VDA {
	if int(pn) < len(f.hints) {
		return f.hints[pn]
	}
	return disk.NilVDA
}

// setHint records a as page pn's address; disk.NilVDA drops the hint.
func (f *File) setHint(pn disk.Word, a disk.VDA) {
	if a == disk.NilVDA {
		f.dropHint(pn)
		return
	}
	for int(pn) >= len(f.hints) {
		f.hints = append(f.hints, disk.NilVDA)
	}
	f.hints[pn] = a
}

// dropHint forgets page pn's address after a failed label check.
func (f *File) dropHint(pn disk.Word) {
	if int(pn) < len(f.hints) {
		f.hints[pn] = disk.NilVDA
	}
}

// resetHints forgets every page address and keeps leader as page 0's. The
// vector keeps its storage, so a handle re-primed by the ladder does not
// allocate.
func (f *File) resetHints(leader disk.VDA) {
	if f.hints == nil {
		f.hints = f.hintBuf[:0]
	}
	f.hints = f.hints[:0]
	f.setHint(0, leader)
}

// Create makes a new file: a leader page holding name and a single empty
// data page, so that the structural invariant — every page but the last is
// full, the last is partial — holds from birth.
func (fs *FS) Create(name string) (*File, error) {
	return fs.create(fs.allocSerial(false), name, disk.NilVDA, disk.NilVDA)
}

// CreateDirectoryFile makes a new file whose identifier is marked as a
// directory, so the Scavenger can find it (§3.4). The directory package owns
// the contents.
func (fs *FS) CreateDirectoryFile(name string) (*File, error) {
	return fs.create(fs.allocSerial(true), name, disk.NilVDA, disk.NilVDA)
}

// CreateBootFile makes the boot file: its first data page occupies the
// reserved boot sector (BootVDA), the fixed location the hardware bootstrap
// reads (§4).
func (fs *FS) CreateBootFile(name string) (*File, error) {
	return fs.create(disk.FV{FID: disk.BootFID, Version: 1}, name, disk.NilVDA, BootVDA)
}

// createAt makes a file with a fixed identity and leader address; used at
// format time for the structures with standard names and addresses.
func (fs *FS) createAt(fv disk.FV, name string, leaderAt disk.VDA) (*File, error) {
	return fs.create(fv, name, leaderAt, disk.NilVDA)
}

func (fs *FS) create(fv disk.FV, name string, leaderAt, p1At disk.VDA) (*File, error) {
	now := fs.now()
	f := &File{
		fs: fs,
		fn: FN{FV: fv},
		ldr: Leader{
			Created:          now,
			Written:          now,
			Read:             now,
			Name:             name,
			LastPN:           1,
			MaybeConsecutive: true,
		},
		lastPN:  1,
		lastLen: 0,
	}

	// Leader first, so data pages can be placed consecutively after it —
	// the layout the compacting scavenger also produces. A crash between
	// the two allocations leaves a leader-only fragment for the Scavenger.
	ldrVal := &f.sc.val
	if err := f.ldr.Encode(ldrVal); err != nil {
		return nil, err
	}
	ldrLbl := disk.Label{FID: fv.FID, Version: fv.Version, PageNum: 0, Length: disk.PageBytes, Next: disk.NilVDA, Prev: disk.NilVDA}
	if leaderAt != disk.NilVDA {
		// A standard address was reserved at format time; release it so the
		// allocator can hand it to this leader and nothing else.
		fs.mu.Lock()
		fs.desc.Free.SetFree(leaderAt)
		fs.mu.Unlock()
	}
	l, err := fs.allocPage(leaderAt, ldrLbl, ldrVal, &f.sc.dsk)
	if err != nil {
		return nil, fmt.Errorf("file: creating %q leader: %w", name, err)
	}
	if leaderAt != disk.NilVDA && l != leaderAt {
		return nil, fmt.Errorf("file: standard address %d for %q unavailable (got %d)", leaderAt, name, l)
	}
	f.fn.Leader = l
	f.resetHints(l)

	p1lbl := disk.Label{FID: fv.FID, Version: fv.Version, PageNum: 1, Length: 0, Next: disk.NilVDA, Prev: l}
	p1try := l + 1
	if p1At != disk.NilVDA {
		// A fixed first data page (the boot sector); release its format-time
		// reservation for this allocation only.
		fs.mu.Lock()
		fs.desc.Free.SetFree(p1At)
		fs.mu.Unlock()
		p1try = p1At
	}
	p1, err := fs.allocPage(p1try, p1lbl, &zeroPage, &f.sc.dsk)
	if err != nil {
		return nil, fmt.Errorf("file: creating %q: %w", name, err)
	}
	if p1At != disk.NilVDA && p1 != p1At {
		return nil, fmt.Errorf("file: fixed first page %d for %q unavailable (got %d)", p1At, name, p1)
	}
	f.setHint(1, p1)

	// Complete the leader: forward link, last-page hint, and an honest
	// consecutive flag (a fixed-address system file's data page may not
	// land right after its leader).
	f.ldr.MaybeConsecutive = p1 == l+1
	f.ldr.LastAddr = p1
	if err := f.ldr.Encode(ldrVal); err != nil {
		return nil, err
	}
	linked := ldrLbl
	linked.Next = p1
	if err := f.sc.dsk.Relabel(fs.dev, l, ldrLbl, linked, ldrVal); err != nil {
		return nil, fmt.Errorf("file: linking %q: %w", name, err)
	}
	return f, nil
}

// Open validates a full name and returns a handle. The leader is read (and
// its label checked); if the hint address is stale, the recovery ladder is
// climbed before giving up.
func (fs *FS) Open(fn FN) (*File, error) {
	f := &File{fs: fs, fn: fn}
	f.resetHints(fn.Leader)
	if err := f.loadLeader(); err != nil {
		return nil, err
	}
	return f, nil
}

// loadLeader reads page 0 and the last-page label, priming the caches.
func (f *File) loadLeader() error {
	f.sc.pat = disk.LinkPattern(f.fn.FV, 0)
	f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat, Value: disk.Read, ValueData: &f.sc.val}
	addr, err := f.access(0, &f.sc.op)
	if err != nil {
		return err
	}
	f.fn.Leader = addr
	ldr, err := DecodeLeader(&f.sc.val)
	if err != nil {
		return err
	}
	f.ldr = ldr
	// Trust the leader's last-page hint if it verifies; otherwise chase
	// links from the front.
	if ldr.LastAddr != disk.NilVDA {
		if lbl, err := f.readLabel(ldr.LastAddr, ldr.LastPN); err == nil && lbl.Next == disk.NilVDA {
			f.lastPN, f.lastLen = ldr.LastPN, int(lbl.Length)
			f.setHint(ldr.LastPN, ldr.LastAddr)
			return nil
		}
	}
	pn, a, length, err := f.chaseToEnd(0, addr)
	if err != nil {
		return err
	}
	f.lastPN, f.lastLen = pn, length
	f.setHint(pn, a)
	return nil
}

// readLabel is disk.ReadLabel for page pn of this file, issued through the
// handle's scratch: passed through the Device interface, a fresh operation
// and pattern would move to the heap on every call.
func (f *File) readLabel(addr disk.VDA, pn disk.Word) (disk.Label, error) {
	f.sc.lpat = disk.LinkPattern(f.fn.FV, pn)
	f.sc.lop = disk.Op{Addr: addr, Label: disk.Check, LabelData: &f.sc.lpat}
	if err := f.fs.dev.Do(&f.sc.lop); err != nil {
		return disk.Label{}, err
	}
	return disk.LabelFromWords(f.sc.lpat), nil
}

// chaseToEnd follows Next links from (pn, addr) to the last page, caching
// hints along the way. Returns the last page's number, address and length.
func (f *File) chaseToEnd(pn disk.Word, addr disk.VDA) (disk.Word, disk.VDA, int, error) {
	for {
		lbl, err := f.readLabel(addr, pn)
		if err != nil {
			return 0, 0, 0, err
		}
		f.fs.mu.Lock()
		f.fs.stats.LinkChases++
		f.fs.mu.Unlock()
		f.setHint(pn, addr)
		if lbl.Next == disk.NilVDA {
			return pn, addr, int(lbl.Length), nil
		}
		addr = lbl.Next
		pn++
	}
}

// access performs op (whose Addr it fills in) on page pn, climbing the hint
// ladder of §3.6 on label-check failures:
//
//  1. the exact hint address for pn;
//  2. links followed from the nearest correct hint (typically the leader);
//  3. a directory lookup of the FV to refresh the leader address;
//  4. the Scavenger, then one more try.
//
// Ordinary damage shows up as a check error; access turns a stale hint into
// at worst extra disk traffic, never wrong data.
func (f *File) access(pn disk.Word, op *disk.Op) (disk.VDA, error) {
	if f.deleted {
		return 0, fmt.Errorf("%w: file %v deleted", ErrBadArg, f.fn.FV)
	}
	// Keep a pristine copy: checks mutate buffers (wildcards fill in), so
	// each retry needs the original patterns. The snapshot is a value on
	// this frame — the hot path must not allocate.
	var snap opSnapshot
	snap.save(op)

	// Level 1: direct hint.
	if a := f.hint(pn); a != disk.NilVDA {
		op.Addr = a
		err := f.fs.dev.Do(op)
		if err == nil {
			f.fs.mu.Lock()
			f.fs.stats.HintHits++
			f.fs.mu.Unlock()
			return a, nil
		}
		if !recoverable(err) {
			return 0, err
		}
		f.dropHint(pn)
		snap.restore(op)
	}

	// Level 2: follow links from the nearest surviving hint.
	if a, err := f.locateByLinks(pn); err == nil {
		op.Addr = a
		if err := f.fs.dev.Do(op); err == nil {
			f.setHint(pn, a)
			return a, nil
		} else if !recoverable(err) {
			return 0, err
		}
		snap.restore(op)
	}

	// Level 3: directory lookup of the FV.
	if f.fs.recovery.ResolveFV != nil {
		if l, err := f.fs.recovery.ResolveFV(f.fn.FV); err == nil {
			f.fs.mu.Lock()
			f.fs.stats.FVResolves++
			f.fs.mu.Unlock()
			f.fn.Leader = l
			f.resetHints(l)
			if a, err := f.locateByLinks(pn); err == nil {
				op.Addr = a
				if err := f.fs.dev.Do(op); err == nil {
					f.setHint(pn, a)
					return a, nil
				} else if !recoverable(err) {
					return 0, err
				}
				snap.restore(op)
			}
		}
	}

	// Level 4: the Scavenger, then directories again.
	if f.fs.recovery.Scavenge != nil {
		if err := f.fs.recovery.Scavenge(); err != nil {
			return 0, fmt.Errorf("%w: scavenge failed: %v", ErrNotFound, err)
		}
		f.fs.mu.Lock()
		f.fs.stats.Scavenges++
		f.fs.mu.Unlock()
		if f.fs.recovery.ResolveFV != nil {
			if l, err := f.fs.recovery.ResolveFV(f.fn.FV); err == nil {
				f.fn.Leader = l
				f.resetHints(l)
				if a, err := f.locateByLinks(pn); err == nil {
					op.Addr = a
					if err := f.fs.dev.Do(op); err == nil {
						f.setHint(pn, a)
						return a, nil
					}
				}
			}
		}
	}
	return 0, fmt.Errorf("%w: page (%v, %d)", ErrNotFound, f.fn.FV, pn)
}

// recoverable reports whether an access failure may be cured by finding the
// page somewhere else (stale hint) rather than being a hard device error.
func recoverable(err error) bool {
	return disk.IsCheck(err) || errors.Is(err, disk.ErrBadSector) || errors.Is(err, disk.ErrAddress)
}

// opSnapshot captures an op's buffer contents so a retry can restore them
// after a check mutated the wildcards. It is a plain value so callers keep
// it on their own stack frame; the old closure form heap-allocated a full
// page per access.
type opSnapshot struct {
	hdr [disk.HeaderWords]disk.Word
	lbl [disk.LabelWords]disk.Word
	val [disk.PageWords]disk.Word
}

func (s *opSnapshot) save(op *disk.Op) {
	if op.HeaderData != nil {
		s.hdr = *op.HeaderData
	}
	if op.LabelData != nil {
		s.lbl = *op.LabelData
	}
	if op.ValueData != nil {
		s.val = *op.ValueData
	}
}

func (s *opSnapshot) restore(op *disk.Op) {
	if op.HeaderData != nil {
		*op.HeaderData = s.hdr
	}
	if op.LabelData != nil {
		*op.LabelData = s.lbl
	}
	if op.ValueData != nil {
		*op.ValueData = s.val
	}
}

// locateByLinks finds page pn by following links from the nearest cached
// hint whose label still verifies. Hints for every k-th page — or any other
// set the program planted — shorten the chase, as §3.6 describes.
func (f *File) locateByLinks(pn disk.Word) (disk.VDA, error) {
	// Choose the verified starting point closest to pn. Hints are probed by
	// distance, ties to the lower page number — pn, pn-1, pn+1, pn-2,
	// pn+2, … — so the probe sequence, and with it the disk traffic, is
	// deterministic and costs no candidate list.
	cur, addr := disk.Word(0), disk.NilVDA
	for d := 0; addr == disk.NilVDA && (d <= int(pn) || int(pn)+d < len(f.hints)); d++ {
		cur, addr = f.probeHint(int(pn) - d)
		if addr == disk.NilVDA && d > 0 {
			cur, addr = f.probeHint(int(pn) + d)
		}
	}
	if addr == disk.NilVDA {
		// No surviving hints at all; try the full-name leader address.
		if _, err := f.readLabel(f.fn.Leader, 0); err != nil {
			return 0, err
		}
		cur, addr = 0, f.fn.Leader
	}
	for cur != pn {
		lbl, err := f.readLabel(addr, cur)
		if err != nil {
			return 0, err
		}
		f.fs.mu.Lock()
		f.fs.stats.LinkChases++
		f.fs.mu.Unlock()
		f.setHint(cur, addr)
		if cur < pn {
			if lbl.Next == disk.NilVDA {
				return 0, fmt.Errorf("%w: page (%v, %d) beyond end", ErrNotFound, f.fn.FV, pn)
			}
			addr = lbl.Next
			cur++
		} else {
			if lbl.Prev == disk.NilVDA {
				return 0, fmt.Errorf("%w: page (%v, %d): broken back link", ErrNotFound, f.fn.FV, pn)
			}
			addr = lbl.Prev
			cur--
		}
	}
	return addr, nil
}

// probeHint verifies the hint for page hpn against its label. It returns
// the page and its address, or disk.NilVDA when there is no hint (hpn may
// lie outside the vector) or the label disowns it; a disowned hint is
// dropped.
func (f *File) probeHint(hpn int) (disk.Word, disk.VDA) {
	if hpn < 0 || hpn >= len(f.hints) || f.hints[hpn] == disk.NilVDA {
		return 0, disk.NilVDA
	}
	pn, a := disk.Word(hpn), f.hints[hpn]
	if _, err := f.readLabel(a, pn); err != nil {
		f.dropHint(pn)
		return 0, disk.NilVDA
	}
	return pn, a
}

// ReadPage reads page pn into buf and returns the number of valid bytes.
func (f *File) ReadPage(pn disk.Word, buf *[disk.PageWords]disk.Word) (int, error) {
	if pn < 1 || pn > f.lastPN {
		return 0, fmt.Errorf("%w: page %d of %d", ErrBadArg, pn, f.lastPN)
	}
	f.sc.pat = disk.LinkPattern(f.fn.FV, pn)
	f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat, Value: disk.Read, ValueData: buf}
	if _, err := f.access(pn, &f.sc.op); err != nil {
		return 0, err
	}
	lbl := disk.LabelFromWords(f.sc.pat)
	// Keep neighbour hints fresh from the links just read.
	if lbl.Next != disk.NilVDA {
		f.setHint(pn+1, lbl.Next)
	}
	if lbl.Prev != disk.NilVDA && pn > 0 {
		f.setHint(pn-1, lbl.Prev)
	}
	f.ldr.Read = f.fs.now()
	f.dirty = true
	return int(lbl.Length), nil
}

// WritePage writes page pn with length valid bytes. Pages before the last
// must stay full (length == PageBytes). Writing the last page with a partial
// length updates its label; writing it completely full appends a fresh empty
// page so the invariant — the last page is always partial — survives, which
// is also the moment allocation happens.
func (f *File) WritePage(pn disk.Word, buf *[disk.PageWords]disk.Word, length int) error {
	if length < 0 || length > disk.PageBytes {
		return fmt.Errorf("%w: length %d", ErrBadArg, length)
	}
	switch {
	case pn < 1 || pn > f.lastPN:
		return fmt.Errorf("%w: page %d of %d", ErrBadArg, pn, f.lastPN)
	case pn < f.lastPN && length != disk.PageBytes:
		return fmt.Errorf("%w: interior page %d must stay full", ErrBadArg, pn)
	}
	f.ldr.Written = f.fs.now()
	f.dirty = true

	if pn < f.lastPN {
		// Plain data write: label checked in passing, no extra revolution.
		f.sc.pat = disk.LinkPattern(f.fn.FV, pn)
		f.sc.pat[4] = disk.PageBytes // interior pages are exactly full
		f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat, Value: disk.Write, ValueData: buf}
		_, err := f.access(pn, &f.sc.op)
		if err == nil {
			f.harvestLinks(pn, f.sc.pat)
		}
		return err
	}

	// Last page.
	if length < disk.PageBytes {
		if length == f.lastLen {
			f.sc.pat = disk.LinkPattern(f.fn.FV, pn)
			f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat, Value: disk.Write, ValueData: buf}
			_, err := f.access(pn, &f.sc.op)
			if err == nil {
				f.harvestLinks(pn, f.sc.pat)
			}
			return err
		}
		// Length change: read-check the label, rewrite it (§3.3's third
		// label-write occasion).
		addr, old, err := f.verifiedLabel(pn)
		if err != nil {
			return err
		}
		newLbl := old
		newLbl.Length = disk.Word(length)
		if err := f.sc.dsk.Relabel(f.fs.dev, addr, old, newLbl, buf); err != nil {
			return err
		}
		f.lastLen = length
		f.ldr.LastPN, f.ldr.LastAddr = pn, addr
		return nil
	}

	// The last page is now full: extend with a fresh empty page.
	addr, old, err := f.verifiedLabel(pn)
	if err != nil {
		return err
	}
	newLbl := disk.Label{
		FID: f.fn.FV.FID, Version: f.fn.FV.Version,
		PageNum: pn + 1, Length: 0, Next: disk.NilVDA, Prev: addr,
	}
	// Prefer the next consecutive sector, the compacting scavenger's layout.
	next, err := f.fs.allocPage(addr+1, newLbl, &zeroPage, &f.sc.dsk)
	if err != nil {
		return err
	}
	if next != addr+1 {
		f.ldr.MaybeConsecutive = false
	}
	full := old
	full.Length = disk.PageBytes
	full.Next = next
	if err := f.sc.dsk.Relabel(f.fs.dev, addr, old, full, buf); err != nil {
		return err
	}
	f.setHint(pn+1, next)
	f.lastPN, f.lastLen = pn+1, 0
	f.ldr.LastPN, f.ldr.LastAddr = pn+1, next
	return nil
}

// harvestLinks caches the neighbour addresses a check just read back through
// its wildcards, so sequential access streams at full disk rate.
func (f *File) harvestLinks(pn disk.Word, pat [disk.LabelWords]disk.Word) {
	lbl := disk.LabelFromWords(pat)
	if lbl.Next != disk.NilVDA {
		f.setHint(pn+1, lbl.Next)
	}
	if lbl.Prev != disk.NilVDA && pn > 0 {
		f.setHint(pn-1, lbl.Prev)
	}
}

// verifiedLabel returns the address and current label of page pn, located
// through the ladder.
func (f *File) verifiedLabel(pn disk.Word) (disk.VDA, disk.Label, error) {
	f.sc.pat = disk.LinkPattern(f.fn.FV, pn)
	f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat}
	addr, err := f.access(pn, &f.sc.op)
	if err != nil {
		return 0, disk.Label{}, err
	}
	return addr, disk.LabelFromWords(f.sc.pat), nil
}

// Truncate cuts the file back so that page newLast (>= 1) is the last page
// with newLen bytes. Pages beyond it are freed, highest first, so that a
// crash mid-truncate leaves a well-formed shorter file.
func (f *File) Truncate(newLast disk.Word, newLen int) error {
	if newLast < 1 || newLast > f.lastPN || newLen < 0 || newLen >= disk.PageBytes {
		return fmt.Errorf("%w: truncate to (%d, %d)", ErrBadArg, newLast, newLen)
	}
	for pn := f.lastPN; pn > newLast; pn-- {
		addr, lbl, err := f.verifiedLabel(pn)
		if err != nil {
			return err
		}
		if err := f.fs.freePage(addr, lbl, &f.sc.dsk); err != nil {
			return err
		}
		f.dropHint(pn)
		f.lastPN = pn - 1
	}
	addr, lbl, err := f.verifiedLabel(newLast)
	if err != nil {
		return err
	}
	if lbl.Next != disk.NilVDA || int(lbl.Length) != newLen {
		f.sc.pat = disk.LinkPattern(f.fn.FV, newLast)
		f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat, Value: disk.Read, ValueData: &f.sc.val}
		if _, err := f.access(newLast, &f.sc.op); err != nil {
			return err
		}
		newLbl := lbl
		newLbl.Next = disk.NilVDA
		newLbl.Length = disk.Word(newLen)
		if err := f.sc.dsk.Relabel(f.fs.dev, addr, lbl, newLbl, &f.sc.val); err != nil {
			return err
		}
	}
	f.lastPN, f.lastLen = newLast, newLen
	f.ldr.LastPN, f.ldr.LastAddr = newLast, addr
	f.ldr.Written = f.fs.now()
	f.dirty = true
	return f.Sync()
}

// Delete frees every page of the file, data pages first (highest first) and
// the leader last, so that a crash mid-delete leaves either a shorter file
// or a leader-only husk the Scavenger can finish off. Directory entries are
// the caller's business — files and names are independent (§3.4).
func (f *File) Delete() error {
	for pn := f.lastPN; pn >= 1; pn-- {
		addr, lbl, err := f.verifiedLabel(pn)
		if err != nil {
			return err
		}
		if err := f.fs.freePage(addr, lbl, &f.sc.dsk); err != nil {
			return err
		}
		f.dropHint(pn)
		if pn > 1 {
			f.lastPN = pn - 1
		}
	}
	addr, lbl, err := f.verifiedLabel(0)
	if err != nil {
		return err
	}
	if err := f.fs.freePage(addr, lbl, &f.sc.dsk); err != nil {
		return err
	}
	f.deleted = true
	return nil
}

// Sync rewrites the leader page if the cached properties (dates, last-page
// hints, consecutive flag) changed. An ordinary value write: one disk
// operation, label checked in passing.
func (f *File) Sync() error {
	if !f.dirty || f.deleted {
		return nil
	}
	if err := f.ldr.Encode(&f.sc.val); err != nil {
		return err
	}
	f.sc.pat = disk.LinkPattern(f.fn.FV, 0)
	f.sc.op = disk.Op{Label: disk.Check, LabelData: &f.sc.pat, Value: disk.Write, ValueData: &f.sc.val}
	if _, err := f.access(0, &f.sc.op); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Rename changes the file's leader name — its self-identification, which
// the Scavenger uses for orphan adoption. The name is an absolute, so only
// the owner changes it, deliberately, through this call; it is written to
// the leader page immediately.
func (f *File) Rename(name string) error {
	if len(name) > MaxLeaderName {
		return fmt.Errorf("%w: leader name %q too long", ErrBadArg, name)
	}
	f.ldr.Name = name
	f.ldr.Written = f.fs.now()
	f.dirty = true
	return f.Sync()
}

// PageAddr returns the verified disk address of page pn, locating it through
// the ladder if needed. Programs use this to build installation hints.
func (f *File) PageAddr(pn disk.Word) (disk.VDA, error) {
	a, _, err := f.verifiedLabel(pn)
	return a, err
}
