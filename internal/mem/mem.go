// Package mem models the Alto's main memory: 64K 16-bit words, with no
// protection hardware of any kind. Everything in the machine — user program,
// operating system packages, stream records, zone free lists, the keyboard
// buffer — lives in this one flat address space, which is precisely what
// makes the paper's open organization (and its Junta) possible.
package mem

import "fmt"

// Word is the 16-bit machine word.
type Word = uint16

// Addr is a word address in the 64K space.
type Addr = uint16

// Words is the size of main memory in words (§2: "64k words of 800 ns
// memory").
const Words = 1 << 16

// PageWords is the size of a memory page in words: the Alto page, the
// same 256 words a disk page's value holds (disk.PageWords).
const PageWords = 256

// Pages is the number of pages in the address space.
const Pages = Words / PageWords

// page is one page of memory. A nil page in the table reads as zero.
type page = [PageWords]Word

// Memory is the machine's main store: a table of Pages pages, each
// allocated on its first nonzero store, so memory costs what its programs
// touch. An untouched page reads as zero and a zero store to one allocates
// nothing. The zero value is all-zero memory, ready to use.
type Memory struct {
	pages [Pages]*page
}

// New returns zeroed memory. It allocates the page table only.
func New() *Memory { return &Memory{} }

// Load returns the word at address a.
func (m *Memory) Load(a Addr) Word {
	if p := m.pages[a/PageWords]; p != nil {
		return p[a%PageWords]
	}
	return 0
}

// Store writes the word at address a.
func (m *Memory) Store(a Addr, v Word) {
	p := m.pages[a/PageWords]
	if p == nil {
		if v == 0 {
			return
		}
		p = new(page)
		m.pages[a/PageWords] = p
	}
	p[a%PageWords] = v
}

// run returns the length of the run of n words from a that stays within a's
// page: the unit every block operation moves at once.
func run(a Addr, n int) int {
	return min(n, PageWords-int(a%PageWords))
}

// LoadBlock fills dst with the words starting at a. The copy wraps at the
// top of memory, as the hardware would.
func (m *Memory) LoadBlock(a Addr, dst []Word) {
	for len(dst) > 0 {
		k := run(a, len(dst))
		if p := m.pages[a/PageWords]; p != nil {
			copy(dst[:k], p[a%PageWords:])
		} else {
			clear(dst[:k])
		}
		dst = dst[k:]
		a += Addr(k)
	}
}

// StoreBlock copies src into memory starting at a, wrapping at the top, in
// runs as LoadBlock does. A run of zeros into an untouched page stores
// nothing.
func (m *Memory) StoreBlock(a Addr, src []Word) {
	for len(src) > 0 {
		k := run(a, len(src))
		p := m.pages[a/PageWords]
		if p == nil && !allZero(src[:k]) {
			p = new(page)
			m.pages[a/PageWords] = p
		}
		if p != nil {
			copy(p[a%PageWords:], src[:k])
		}
		src = src[k:]
		a += Addr(k)
	}
}

// allZero reports whether every word of ws is zero.
func allZero(ws []Word) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// Snapshot returns a copy of all of memory. OutLoad's raw material.
func (m *Memory) Snapshot() []Word {
	s := make([]Word, Words)
	m.LoadBlock(0, s)
	return s
}

// Restore replaces all of memory from a snapshot. It panics if the snapshot
// is not exactly memory-sized; a partial machine state is never restorable.
func (m *Memory) Restore(s []Word) {
	if len(s) != Words {
		panic(fmt.Sprintf("mem: Restore with %d words, need %d", len(s), Words))
	}
	m.StoreBlock(0, s)
}

// Clear zeroes n words starting at a, wrapping at the top. Untouched pages
// stay untouched.
func (m *Memory) Clear(a Addr, n int) {
	for n = min(n, Words); n > 0; {
		k := run(a, n)
		if p := m.pages[a/PageWords]; p != nil {
			clear(p[a%PageWords:][:k])
		}
		n -= k
		a += Addr(k)
	}
}

// TouchedPages returns the number of pages memory holds storage for: the
// pages some nonzero store has reached.
func (m *Memory) TouchedPages() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Checksum returns a simple additive checksum of all memory, used by tests
// to compare machine states cheaply.
func (m *Memory) Checksum() uint32 {
	var sum uint32
	for pn, p := range m.pages {
		if p == nil {
			continue
		}
		for i, v := range p {
			sum += uint32(v) * uint32(pn*PageWords+i+1)
		}
	}
	return sum
}

// Region is a half-open range [Start, End) of the address space. The
// operating system's level structure (§5.2) is expressed as regions.
type Region struct {
	Start Addr
	End   Addr // exclusive; End==0 with Start>0 means "through the top"
}

// Size returns the region's length in words.
func (r Region) Size() int {
	end := int(r.End)
	if end == 0 && r.Start > 0 {
		end = Words
	}
	return end - int(r.Start)
}

// Contains reports whether a lies in the region.
func (r Region) Contains(a Addr) bool {
	end := int(r.End)
	if end == 0 && r.Start > 0 {
		end = Words
	}
	return int(a) >= int(r.Start) && int(a) < end
}

// String implements fmt.Stringer.
func (r Region) String() string {
	end := int(r.End)
	if end == 0 && r.Start > 0 {
		end = Words
	}
	return fmt.Sprintf("[%#04x, %#05x)", r.Start, end)
}
