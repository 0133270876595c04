package file

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"altoos/internal/disk"
)

// Errors returned by the file layer.
var (
	// ErrDiskFull reports that no free page could be allocated.
	ErrDiskFull = errors.New("file: disk full")
	// ErrNotFound reports that a page or file could not be located even
	// after climbing the recovery ladder.
	ErrNotFound = errors.New("file: not found")
	// ErrBadArg reports an argument outside the file's structure.
	ErrBadArg = errors.New("file: bad argument")
	// ErrNoFS reports a device with no recognizable file system.
	ErrNoFS = errors.New("file: no file system on device")
)

// Recovery holds the upper levels of the hint ladder (§3.6). The file layer
// itself only follows hints and links; when those fail it calls out so that
// the directory layer and the Scavenger — which live above it — can help.
// Either function may be nil.
type Recovery struct {
	// ResolveFV looks up a file identifier in the directories and returns a
	// fresh leader address (§3.6 step: "look up the FV in a directory").
	ResolveFV func(fv disk.FV) (disk.VDA, error)
	// Scavenge reconstructs the entire file system, after which lookups are
	// retried (§3.6 last step).
	Scavenge func() error
}

// Stats counts file-system level activity, including how often hints failed
// and what recovered them — the raw material of experiment E5.
type Stats struct {
	Allocs       int64
	AllocRetries int64 // allocation-map lies caught by label checks
	Frees        int64
	HintHits     int64 // page found directly through a hint address
	LinkChases   int64 // link-following steps
	FVResolves   int64 // recoveries via directory FID lookup
	Scavenges    int64 // recoveries via the Scavenger
}

// FS is a mounted file system on a device.
type FS struct {
	mu       sync.Mutex
	dev      disk.Device
	desc     *Descriptor
	descFN   FN
	rover    disk.VDA
	recovery Recovery
	stats    Stats

	// chain is movePages' chain scratch while no call has it on loan
	// (lendChain).
	chain *chainScratch
}

// Device returns the device the file system is mounted on.
func (fs *FS) Device() disk.Device { return fs.dev }

// Descriptor returns the in-core disk descriptor. Callers must treat the
// allocation map as the hint it is.
func (fs *FS) Descriptor() *Descriptor { return fs.desc }

// Stats returns a snapshot of the accumulated counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// ResetStats clears the counters.
func (fs *FS) ResetStats() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats = Stats{}
}

// SetRecovery installs the upper hint-ladder levels.
func (fs *FS) SetRecovery(r Recovery) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.recovery = r
}

// RootDir returns the (hint) full name of the root directory.
func (fs *FS) RootDir() FN {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.desc.RootDir
}

// SetRootDir records the root directory's full name in the descriptor.
func (fs *FS) SetRootDir(fn FN) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.desc.RootDir = fn
}

// now returns the current simulated time.
func (fs *FS) now() time.Duration { return fs.dev.Clock().Now() }

// Format writes a fresh, empty file system on the device: a reserved boot
// page at BootVDA, the root directory file (leader at SysDirLeaderVDA, still
// empty — the directory package fills it in), and the disk descriptor file
// (leader at DescLeaderVDA) holding the shape, the allocation map and the
// root directory's name.
func Format(dev disk.Device) (*FS, error) {
	g := dev.Geometry()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	fs := &FS{
		dev: dev,
		desc: &Descriptor{
			Shape:      g,
			Pack:       dev.Pack(),
			NextSerial: uint32(disk.FirstUserFID),
			Free:       NewBitMap(g.NSectors()),
		},
		rover: DescLeaderVDA + 1,
	}
	// The boot page is reserved for the boot file the swap package creates.
	// The standard leader addresses are reserved too, so ordinary allocation
	// cannot take them before createAt claims them.
	fs.desc.Free.SetBusy(BootVDA)
	fs.desc.Free.SetBusy(SysDirLeaderVDA)
	fs.desc.Free.SetBusy(DescLeaderVDA)

	// Root directory: leader at the standard address plus one empty page.
	root, err := fs.createAt(disk.FV{FID: disk.SysDirFID, Version: 1}, "SysDir.", SysDirLeaderVDA)
	if err != nil {
		return nil, fmt.Errorf("file: formatting root directory: %w", err)
	}
	fs.desc.RootDir = root.fn

	// Descriptor file at its standard address, grown to hold the map.
	df, err := fs.createAt(disk.FV{FID: disk.DescriptorFID, Version: 1}, "DiskDescriptor.", DescLeaderVDA)
	if err != nil {
		return nil, fmt.Errorf("file: formatting descriptor: %w", err)
	}
	fs.descFN = df.fn
	if err := fs.flushDescriptor(df); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount reads the disk descriptor from a previously formatted device. If the
// descriptor cannot be read the device needs scavenging; use Rebuild in the
// scavenge package.
func Mount(dev disk.Device) (*FS, error) {
	fs := &FS{dev: dev, rover: DescLeaderVDA + 1}
	fn := FN{FV: disk.FV{FID: disk.DescriptorFID, Version: 1}, Leader: DescLeaderVDA}
	fs.descFN = fn
	// Bootstrap problem: reading the descriptor file requires no descriptor,
	// only labels, since pages self-identify.
	words, err := fs.readWholeFile(fn)
	if err != nil {
		return nil, fmt.Errorf("%w: reading descriptor: %v", ErrNoFS, err)
	}
	d, err := DecodeDescriptor(words)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoFS, err)
	}
	d.Shape.Name = dev.Geometry().Name
	fs.desc = d
	return fs, nil
}

// AdoptDescriptor installs a descriptor rebuilt by the Scavenger and flushes
// it to the descriptor file.
func (fs *FS) AdoptDescriptor(d *Descriptor) error {
	fs.mu.Lock()
	fs.desc = d
	fs.mu.Unlock()
	return fs.Flush()
}

// Flush writes the in-core descriptor (including the hint allocation map)
// back to the descriptor file. The paper's system did this lazily; a stale
// map on disk costs only "a little extra one-time disk activity" after a
// crash.
func (fs *FS) Flush() error {
	f, err := fs.Open(fs.descFN)
	if err != nil {
		return fmt.Errorf("file: flushing descriptor: %w", err)
	}
	return fs.flushDescriptor(f)
}

// flushDescriptor writes the descriptor into file f, growing it as needed.
func (fs *FS) flushDescriptor(f *File) error {
	words := func() []disk.Word {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.desc.EncodeWords()
	}()
	var page [disk.PageWords]disk.Word
	pn := disk.Word(1)
	for off := 0; off < len(words); off += disk.PageWords {
		n := copy(page[:], words[off:])
		for i := n; i < disk.PageWords; i++ {
			page[i] = 0
		}
		length := n * 2
		if off+disk.PageWords < len(words) {
			length = disk.PageBytes
		}
		if length == disk.PageBytes && off+disk.PageWords >= len(words) {
			// Exactly full: the invariant demands a trailing partial page,
			// which WritePage provides automatically.
			length = disk.PageBytes
		}
		if err := f.WritePage(pn, &page, length); err != nil {
			return fmt.Errorf("file: flushing descriptor page %d: %w", pn, err)
		}
		pn++
	}
	return f.Sync()
}

// readWholeFile reads every data page of fn by following links from the
// leader, with no descriptor needed. Returns the concatenated data words.
func (fs *FS) readWholeFile(fn FN) ([]disk.Word, error) {
	// Validate the leader and get the first data page address.
	ldrLbl, err := disk.ReadLabel(fs.dev, fn.Leader, fn.FV, 0)
	if err != nil {
		return nil, err
	}
	var words []disk.Word
	addr := ldrLbl.Next
	pn := disk.Word(1)
	for addr != disk.NilVDA {
		pat := disk.LinkPattern(fn.FV, pn)
		var v [disk.PageWords]disk.Word
		err := fs.dev.Do(&disk.Op{
			Addr: addr, Label: disk.Check, LabelData: &pat,
			Value: disk.Read, ValueData: &v,
		})
		if err != nil {
			return nil, err
		}
		lbl := disk.LabelFromWords(pat)
		words = append(words, v[:(int(lbl.Length)+1)/2]...)
		addr = lbl.Next
		pn++
	}
	return words, nil
}

// allocSerial hands out the next file identifier serial.
func (fs *FS) allocSerial(directory bool) disk.FV {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.desc.NextSerial
	fs.desc.NextSerial++
	fid := disk.FID(s)
	if directory {
		fid |= disk.DirFIDBit
	}
	return disk.FV{FID: fid, Version: 1}
}

// allocPage claims a free page and writes its first label and value. It
// prefers the page at try (for consecutive allocation); on any label-check
// surprise — the map said free, the label says otherwise — it marks the page
// busy and tries elsewhere, exactly the §3.3 discipline. Returns the chosen
// address. sc is the calling handle's scratch; the disk traffic goes
// through it so the steady-state path allocates nothing.
func (fs *FS) allocPage(try disk.VDA, lbl disk.Label, v *[disk.PageWords]disk.Word, sc *disk.OpScratch) (disk.VDA, error) {
	for {
		fs.mu.Lock()
		var a disk.VDA
		if try != disk.NilVDA && int(try) < fs.desc.Free.Len() && !fs.desc.Free.Busy(try) {
			a = try
		} else {
			a = fs.desc.Free.scan(fs.rover)
		}
		if a == disk.NilVDA {
			fs.mu.Unlock()
			return disk.NilVDA, ErrDiskFull
		}
		fs.desc.Free.SetBusy(a)
		fs.rover = disk.VDA((int(a) + 1) % fs.desc.Free.Len())
		fs.mu.Unlock()

		err := sc.Allocate(fs.dev, a, lbl, v)
		switch {
		case err == nil:
			fs.mu.Lock()
			fs.stats.Allocs++
			fs.mu.Unlock()
			return a, nil
		case disk.IsCheck(err) || errors.Is(err, disk.ErrBadSector):
			// The map lied (or the page is bad): it stays marked busy so we
			// never try it again this session; the Scavenger will recover it
			// if it is genuinely free.
			fs.mu.Lock()
			fs.stats.AllocRetries++
			fs.mu.Unlock()
			try = disk.NilVDA
			continue
		default:
			return disk.NilVDA, err
		}
	}
}

// freePage releases the page and clears its map bit.
func (fs *FS) freePage(a disk.VDA, expect disk.Label, sc *disk.OpScratch) error {
	if err := sc.Free(fs.dev, a, expect); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.desc.Free.SetFree(a)
	fs.stats.Frees++
	fs.mu.Unlock()
	return nil
}

// SetRover positions the allocation rover, the place the next free-page
// scan starts. A diagnostic hook for tools, tests and experiments; the map
// is a hint, so no setting of the rover can be unsafe.
func (fs *FS) SetRover(a disk.VDA) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if int(a) < fs.desc.Free.Len() {
		fs.rover = a
	}
}

// FreeCount returns the number of pages the allocation map believes free.
func (fs *FS) FreeCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.desc.Free.CountFree()
}
