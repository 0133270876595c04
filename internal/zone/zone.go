// Package zone implements the Alto OS free-storage allocator. A zone is an
// abstract object that can allocate and release blocks of working storage in
// simulated main memory (§5.2: "The storage allocator ... will build zone
// objects to allocate any part of memory, whether in the system free storage
// region or not").
//
// The openness story: zones are an interface; the system free-storage zone
// is just one instance; any program can carve a zone out of any region it
// owns and hand it to, say, the disk-stream creator, which allocates its
// stream records there. Several packages in this repository take a Zone
// parameter with the system zone as the default, mirroring §2's example of
// the disk-stream constructor.
package zone

import (
	"errors"
	"fmt"

	"altoos/internal/mem"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cAlloc      = trace.NewCounter("zone.alloc")
	cAllocFail  = trace.NewCounter("zone.alloc.fail")
	cFree       = trace.NewCounter("zone.free")
	hInuseWords = trace.NewHist("zone.inuse.words")
)

// Zone is the abstract free-storage object: anything that can allocate and
// free blocks of words in main memory.
type Zone interface {
	// Alloc returns the address of a block of at least n words.
	Alloc(n int) (mem.Addr, error)
	// Free releases a block previously returned by Alloc.
	Free(a mem.Addr) error
}

// Errors returned by zone operations.
var (
	// ErrNoRoom reports that the zone cannot satisfy the request.
	ErrNoRoom = errors.New("zone: no room")
	// ErrBadBlock reports a Free of an address that is not the start of an
	// allocated block of this zone.
	ErrBadBlock = errors.New("zone: not an allocated block of this zone")
	// ErrBadZone reports an invalid zone configuration.
	ErrBadZone = errors.New("zone: invalid region")
)

// Block layout in memory: each block is preceded by a one-word header whose
// top bit marks it allocated and whose low 15 bits give the total size in
// words, header included. Blocks are contiguous, so the whole zone can be
// walked from its base; freeing coalesces adjacent free blocks.
const (
	hdrWords  = 1
	allocBit  = 0x8000
	sizeMask  = 0x7FFF
	minSplit  = 2 // do not leave fragments smaller than header+1
	maxRegion = sizeMask
)

// MemZone is the standard zone implementation: a first-fit allocator with
// coalescing over a region of main memory.
type MemZone struct {
	m     *mem.Memory
	base  mem.Addr
	size  int // words
	stats Stats

	// rec/clk stamp alloc/free events when a flight recorder is attached;
	// both nil when tracing is off. A zone is single-threaded like the
	// machine it models, so no lock guards them.
	rec *trace.Recorder
	clk *sim.Clock
}

// SetTrace attaches a flight recorder and the clock that stamps its events
// (both nil to detach). core.System calls this when it builds the system
// free-storage zone.
func (z *MemZone) SetTrace(r *trace.Recorder, c *sim.Clock) {
	z.rec = r
	z.clk = c
}

// emit records one zone event plus the occupancy sample that makes
// fragmentation visible over time.
func (z *MemZone) emit(k trace.Kind, a mem.Addr, words int) {
	if z.rec == nil || z.clk == nil {
		return
	}
	z.rec.Emit(z.clk.Now(), k, "", int64(a), int64(words))
	if k == trace.KindZoneAlloc {
		z.rec.Add(cAlloc, 1)
	} else {
		z.rec.Add(cFree, 1)
	}
	z.rec.Observe(hInuseWords, float64(z.stats.InUse))
}

// Stats describes a zone's activity and occupancy.
type Stats struct {
	Allocs   int64
	Frees    int64
	Failures int64
	InUse    int // words currently allocated, headers included
}

var _ Zone = (*MemZone)(nil)

// New builds a zone over the size words starting at base in m. The region
// must fit in the address space and be at most 32767 words (the header word
// spends a bit on the allocated flag).
func New(m *mem.Memory, base mem.Addr, size int) (*MemZone, error) {
	if size < hdrWords+1 || size > maxRegion {
		return nil, fmt.Errorf("%w: size %d", ErrBadZone, size)
	}
	if int(base)+size > mem.Words {
		return nil, fmt.Errorf("%w: [%d,%d) exceeds memory", ErrBadZone, base, int(base)+size)
	}
	z := &MemZone{m: m, base: base, size: size}
	m.Store(base, mem.Word(size)) // one big free block
	return z, nil
}

// Region returns the memory region the zone manages.
func (z *MemZone) Region() mem.Region {
	//altovet:allow wordwidth base+size is validated against the 16-bit address space at construction
	return mem.Region{Start: z.base, End: mem.Addr(int(z.base) + z.size)}
}

// Stats returns a snapshot of the zone's counters.
func (z *MemZone) Stats() Stats { return z.stats }

// Avail returns the number of words in the largest free block (the largest
// single allocation that can succeed).
func (z *MemZone) Avail() int {
	largest := 0
	z.walk(func(a mem.Addr, size int, used bool) {
		if !used && size-hdrWords > largest {
			largest = size - hdrWords
		}
	})
	return largest
}

// walk visits every block in address order.
func (z *MemZone) walk(f func(a mem.Addr, size int, used bool)) {
	off := 0
	for off < z.size {
		//altovet:allow wordwidth off < size and base+size fits the 16-bit address space
		a := mem.Addr(int(z.base) + off)
		h := z.m.Load(a)
		size := int(h & sizeMask)
		if size == 0 {
			// A corrupt header would loop forever; stop the walk. The zone
			// has no checks stronger than this — memory is unprotected, as
			// on the real machine.
			return
		}
		f(a, size, h&allocBit != 0)
		off += size
	}
}

// Alloc implements Zone. First fit, splitting when the remainder is big
// enough to be a block of its own.
func (z *MemZone) Alloc(n int) (mem.Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: alloc of %d words", ErrNoRoom, n)
	}
	need := n + hdrWords
	off := 0
	for off < z.size {
		//altovet:allow wordwidth off < size and base+size fits the 16-bit address space
		a := mem.Addr(int(z.base) + off)
		h := z.m.Load(a)
		size := int(h & sizeMask)
		if size == 0 {
			break
		}
		if h&allocBit == 0 {
			// Coalesce the run of free blocks starting here before testing.
			size = z.coalesceAt(a, size)
			if size >= need {
				rest := size - need
				if rest >= minSplit {
					//altovet:allow wordwidth need <= size of this block, so a+need stays inside the zone
					z.m.Store(mem.Addr(int(a)+need), mem.Word(rest))
					size = need
				}
				z.m.Store(a, mem.Word(size)|allocBit)
				z.stats.Allocs++
				z.stats.InUse += size
				z.emit(trace.KindZoneAlloc, a+hdrWords, size)
				return a + hdrWords, nil
			}
		}
		off += size
	}
	z.stats.Failures++
	if z.rec != nil {
		z.rec.Add(cAllocFail, 1)
	}
	return 0, fmt.Errorf("%w: %d words (largest free %d)", ErrNoRoom, n, z.Avail())
}

// coalesceAt merges the free block at a with any free blocks immediately
// after it, returning the merged size. The header at a is rewritten.
func (z *MemZone) coalesceAt(a mem.Addr, size int) int {
	for {
		nextOff := int(a) - int(z.base) + size
		if nextOff >= z.size {
			break
		}
		//altovet:allow wordwidth nextOff < size and base+size fits the 16-bit address space
		na := mem.Addr(int(z.base) + nextOff)
		nh := z.m.Load(na)
		if nh&allocBit != 0 || nh&sizeMask == 0 {
			break
		}
		size += int(nh & sizeMask)
	}
	z.m.Store(a, mem.Word(size))
	return size
}

// Free implements Zone.
func (z *MemZone) Free(a mem.Addr) error {
	if int(a) <= int(z.base) || int(a) >= int(z.base)+z.size {
		return fmt.Errorf("%w: %#04x outside %v", ErrBadBlock, a, z.Region())
	}
	hdr := a - hdrWords
	// Verify the address is a block boundary by walking; memory has no
	// protection, but the zone can at least refuse obvious nonsense.
	found := false
	var size int
	z.walk(func(b mem.Addr, s int, used bool) {
		if b == hdr && used {
			found = true
			size = s
		}
	})
	if !found {
		return fmt.Errorf("%w: %#04x", ErrBadBlock, a)
	}
	z.m.Store(hdr, mem.Word(size)) // clear alloc bit
	z.stats.Frees++
	z.stats.InUse -= size
	z.emit(trace.KindZoneFree, a, size)
	return nil
}

// AllocWords allocates a block and returns it as a live slice view is not
// possible over simulated memory; instead this helper allocates and zeroes
// the block, returning its address.
func (z *MemZone) AllocWords(n int) (mem.Addr, error) {
	a, err := z.Alloc(n)
	if err != nil {
		return 0, err
	}
	z.m.Clear(a, n)
	return a, nil
}
