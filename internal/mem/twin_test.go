package mem

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// flat is the reference memory FuzzMemoryTwin checks the paged Memory
// against: one flat array, every operation word by word, as the store was
// before it was paged.
type flat [Words]Word

func (f *flat) storeBlock(a Addr, src []Word) {
	for i, v := range src {
		f[a+Addr(i)] = v
	}
}

func (f *flat) loadBlock(a Addr, dst []Word) {
	for i := range dst {
		dst[i] = f[a+Addr(i)]
	}
}

func (f *flat) clear(a Addr, n int) {
	for i := 0; i < n; i++ {
		f[a+Addr(i)] = 0
	}
}

func (f *flat) checksum() uint32 {
	var sum uint32
	for i, v := range f {
		sum += uint32(v) * uint32(i+1)
	}
	return sum
}

// twinOp is one decoded fuzz operation: seven bytes of kind, address,
// length and value.
type twinOp struct {
	kind byte
	a    Addr
	n    int
	v    Word
}

// decodeTwin splits fuzz bytes into operations. A length is at most 600
// words (two or three page crossings) unless the kind byte's top bit asks
// for the full 16-bit range; a Clear with bit 6 set also runs past the end
// of memory.
func decodeTwin(data []byte) []twinOp {
	var ops []twinOp
	for ; len(data) >= 7; data = data[7:] {
		op := twinOp{
			kind: data[0],
			a:    binary.BigEndian.Uint16(data[1:]),
			n:    int(binary.BigEndian.Uint16(data[3:])),
			v:    binary.BigEndian.Uint16(data[5:]),
		}
		if op.kind&0x80 == 0 {
			op.n %= 600
		}
		if op.kind&0x40 != 0 {
			op.n += Words
		}
		ops = append(ops, op)
	}
	return ops
}

// block is the source of a StoreBlock: v, 2v, 3v, … — all zeros when v is.
func block(v Word, n int) []Word {
	src := make([]Word, min(n, Words))
	for i := range src {
		src[i] = v * Word(i+1)
	}
	return src
}

// FuzzMemoryTwin drives the paged Memory and the flat reference through
// the same Loads, Stores (zero stores to untouched pages among them),
// blocks across page boundaries and the wrap at 0xFFFF, Clears,
// Snapshot/Restore and Checksums, and requires identical results. It also
// holds the paging promise: no page gets storage unless some nonzero word
// was stored into it.
func FuzzMemoryTwin(f *testing.F) {
	op := func(kind byte, a Addr, n, v uint16) []byte {
		return []byte{kind, byte(a >> 8), byte(a), byte(n >> 8), byte(n), byte(v >> 8), byte(v)}
	}
	cat := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	f.Add(cat(op(1, 0x0100, 0, 0), op(0, 0x0100, 0, 0), op(6, 0, 0, 0)))
	f.Add(cat(op(2, 0xFFF0, 40, 3), op(3, 0xFFF8, 20, 0), op(6, 0, 0, 0)))
	f.Add(cat(op(2, 0x00F0, 300, 0), op(1, 0x2345, 0, 7), op(4, 0x2300, 256, 0), op(3, 0x2300, 300, 0)))
	f.Add(cat(op(2, 0x1000, 500, 9), op(5, 0, 0, 0), op(4|0x40, 0x10, 5, 0), op(5, 0, 0, 1), op(6, 0, 0, 0)))
	f.Add(cat(op(2|0x80, 0xFFFF, 0xFFFF, 1), op(3|0x80, 0x8000, 0x9000, 0), op(4, 0xFF80, 0x200, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ref := New(), new(flat)
		var ever [Pages]bool // pages some nonzero word was stored into
		mark := func(a Addr, src []Word) {
			for i, v := range src {
				if v != 0 {
					ever[(a+Addr(i))/PageWords] = true
				}
			}
		}
		var snap []Word
		for i, op := range decodeTwin(data) {
			switch op.kind % 7 {
			case 0:
				if got, want := m.Load(op.a), ref[op.a]; got != want {
					t.Fatalf("op %d: Load(%#04x) = %#04x, want %#04x", i, op.a, got, want)
				}
			case 1:
				m.Store(op.a, op.v)
				ref[op.a] = op.v
				mark(op.a, []Word{op.v})
			case 2:
				src := block(op.v, op.n)
				m.StoreBlock(op.a, src)
				ref.storeBlock(op.a, src)
				mark(op.a, src)
			case 3:
				n := min(op.n, Words)
				got, want := make([]Word, n), make([]Word, n)
				m.LoadBlock(op.a, got)
				ref.loadBlock(op.a, want)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("op %d: LoadBlock(%#04x, %d)[%d] = %#04x, want %#04x", i, op.a, n, j, got[j], want[j])
					}
				}
			case 4:
				m.Clear(op.a, op.n)
				ref.clear(op.a, op.n)
			case 5:
				// Take a snapshot the first time, restore it the next.
				if snap == nil || op.v&1 == 0 {
					snap = m.Snapshot()
					if flat(snap) != *ref {
						t.Fatalf("op %d: Snapshot differs from the reference", i)
					}
					break
				}
				m.Restore(snap)
				copy(ref[:], snap)
				mark(0, snap)
			case 6:
				if got, want := m.Checksum(), ref.checksum(); got != want {
					t.Fatalf("op %d: Checksum = %#x, want %#x", i, got, want)
				}
			}
			touched := 0
			for _, e := range ever {
				if e {
					touched++
				}
			}
			if got := m.TouchedPages(); got > touched {
				t.Fatalf("op %d: %d pages have storage, but nonzero words reached only %d", i, got, touched)
			}
		}
		if flat(m.Snapshot()) != *ref {
			for a := 0; a < Words; a++ {
				if got, want := m.Load(Addr(a)), ref[a]; got != want {
					t.Fatalf("end: word %#04x = %#04x, want %#04x", a, got, want)
				}
			}
			t.Fatal("end: Snapshot differs from the reference, every Load agrees")
		}
	})
}

// TestNewAllocatesOnlyTheTable pins what fresh memory costs: the page
// table, at most 4 KB, and no page.
func TestNewAllocatesOnlyTheTable(t *testing.T) {
	const runs = 100
	keep := make([]*Memory, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4096 {
		t.Errorf("New allocates %d bytes, want at most 4096", per)
	}
	if n := keep[0].TouchedPages(); n != 0 {
		t.Errorf("fresh memory holds %d pages, want 0", n)
	}
}

// TestZeroStoresTouchNothing: zero stores, zero blocks and Clears of
// untouched memory give no page storage, and Load of untouched memory
// allocates nothing.
func TestZeroStoresTouchNothing(t *testing.T) {
	m := New()
	m.Store(0x1234, 0)
	m.StoreBlock(0xFF00, make([]Word, 1024))
	m.Clear(0, Words)
	if n := m.TouchedPages(); n != 0 {
		t.Fatalf("%d pages touched by zero stores, want 0", n)
	}
	m.Store(0x1234, 1)
	if n := m.TouchedPages(); n != 1 {
		t.Fatalf("%d pages touched by one nonzero store, want 1", n)
	}
	if a := testing.AllocsPerRun(100, func() { _ = m.Load(0x8000) + m.Load(0x1234) }); a != 0 {
		t.Errorf("Load: %v allocs, want 0", a)
	}
}
