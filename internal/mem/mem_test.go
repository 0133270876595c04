package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStore(t *testing.T) {
	m := New()
	m.Store(0, 0x1234)
	m.Store(0xFFFF, 0xBEEF)
	if m.Load(0) != 0x1234 || m.Load(0xFFFF) != 0xBEEF {
		t.Fatal("load/store round trip failed")
	}
}

func TestBlockWraps(t *testing.T) {
	m := New()
	src := []Word{1, 2, 3, 4}
	m.StoreBlock(0xFFFE, src)
	if m.Load(0xFFFE) != 1 || m.Load(0xFFFF) != 2 || m.Load(0) != 3 || m.Load(1) != 4 {
		t.Fatal("StoreBlock did not wrap at top of memory")
	}
	dst := make([]Word, 4)
	m.LoadBlock(0xFFFE, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("LoadBlock wrap: dst[%d]=%d want %d", i, dst[i], src[i])
		}
	}
}

// TestBlockWrapsAtLastWord runs blocks that start on the top word, so the
// first run is one word long and the rest lands from address 0, against the
// word-at-a-time wrap. The whole-memory block ends on the word it began
// after; words the shorter blocks do not reach keep their old values.
func TestBlockWrapsAtLastWord(t *testing.T) {
	for _, n := range []int{1, 2, 3, 256, Words} {
		m := New()
		for i := 0; i < Words; i++ {
			m.Store(Addr(i), 0xAAAA)
		}
		src := make([]Word, n)
		for i := range src {
			src[i] = Word(i + 1)
		}
		m.StoreBlock(0xFFFF, src)
		for i := 0; i < Words; i++ {
			want := Word(0xAAAA)
			if i < n {
				want = src[i]
			}
			if got := m.Load(0xFFFF + Addr(i)); got != want {
				t.Fatalf("n=%d: StoreBlock left word %#04x = %#04x, want %#04x", n, 0xFFFF+Addr(i), got, want)
			}
		}
		dst := make([]Word, n)
		m.LoadBlock(0xFFFF, dst)
		for i := range dst {
			if dst[i] != src[i] {
				t.Fatalf("n=%d: LoadBlock dst[%d] = %#04x, want %#04x", n, i, dst[i], src[i])
			}
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Store(Addr(i*613), Word(i))
	}
	snap := m.Snapshot()
	before := m.Checksum()
	m.Store(5, 0xDEAD)
	if m.Checksum() == before {
		t.Fatal("checksum insensitive to change")
	}
	m.Restore(snap)
	if m.Checksum() != before {
		t.Fatal("restore did not reproduce the snapshot")
	}
	// Snapshot is a copy: mutating memory must not change it.
	m.Store(6, 0xBEEF)
	if snap[6] == 0xBEEF {
		t.Fatal("snapshot aliases live memory")
	}
}

func TestRestorePanicsOnShortSnapshot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Restore of short snapshot did not panic")
		}
	}()
	New().Restore(make([]Word, 10))
}

func TestClear(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		m.Store(Addr(100+i), 0xAAAA)
	}
	m.Clear(102, 4)
	for i := 0; i < 10; i++ {
		v := m.Load(Addr(100 + i))
		inCleared := i >= 2 && i < 6
		if inCleared && v != 0 {
			t.Errorf("word %d not cleared", i)
		}
		if !inCleared && v != 0xAAAA {
			t.Errorf("word %d clobbered", i)
		}
	}
}

func TestRegion(t *testing.T) {
	r := Region{Start: 0x100, End: 0x200}
	if r.Size() != 0x100 {
		t.Errorf("Size = %d", r.Size())
	}
	if !r.Contains(0x100) || r.Contains(0x200) || r.Contains(0xFF) {
		t.Error("Contains wrong at boundaries")
	}
	top := Region{Start: 0xFF00, End: 0}
	if top.Size() != 0x100 {
		t.Errorf("through-the-top region Size = %d", top.Size())
	}
	if !top.Contains(0xFFFF) || top.Contains(0xFEFF) {
		t.Error("through-the-top Contains wrong")
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(a Addr, data []Word) bool {
		if len(data) > Words {
			data = data[:Words]
		}
		m := New()
		m.StoreBlock(a, data)
		got := make([]Word, len(data))
		m.LoadBlock(a, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
