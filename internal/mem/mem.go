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

// Memory is the machine's main store. The zero value is all-zero memory,
// ready to use.
type Memory struct {
	w [Words]Word
}

// New returns zeroed memory.
func New() *Memory { return &Memory{} }

// Load returns the word at address a.
func (m *Memory) Load(a Addr) Word { return m.w[a] }

// Store writes the word at address a.
func (m *Memory) Store(a Addr, v Word) { m.w[a] = v }

// LoadBlock fills dst with the words starting at a. The copy wraps at the
// top of memory, as the hardware would: a block of up to 64K words is at
// most two runs, split at the wrap.
func (m *Memory) LoadBlock(a Addr, dst []Word) {
	for len(dst) > 0 {
		k := copy(dst, m.w[a:])
		dst = dst[k:]
		a += Addr(k)
	}
}

// StoreBlock copies src into memory starting at a, wrapping at the top, in
// runs as LoadBlock does.
func (m *Memory) StoreBlock(a Addr, src []Word) {
	for len(src) > 0 {
		k := copy(m.w[a:], src)
		src = src[k:]
		a += Addr(k)
	}
}

// Snapshot returns a copy of all of memory. OutLoad's raw material.
func (m *Memory) Snapshot() []Word {
	s := make([]Word, Words)
	copy(s, m.w[:])
	return s
}

// Restore replaces all of memory from a snapshot. It panics if the snapshot
// is not exactly memory-sized; a partial machine state is never restorable.
func (m *Memory) Restore(s []Word) {
	if len(s) != Words {
		panic(fmt.Sprintf("mem: Restore with %d words, need %d", len(s), Words))
	}
	copy(m.w[:], s)
}

// Clear zeroes n words starting at a.
func (m *Memory) Clear(a Addr, n int) {
	for i := 0; i < n; i++ {
		m.w[a+Addr(i)] = 0
	}
}

// Checksum returns a simple additive checksum of all memory, used by tests
// to compare machine states cheaply.
func (m *Memory) Checksum() uint32 {
	var sum uint32
	for i, v := range m.w {
		sum += uint32(v) * uint32(i+1)
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
