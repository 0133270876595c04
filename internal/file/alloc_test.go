package file

import (
	"testing"

	"altoos/internal/disk"
)

// TestDecodeLeaderAllocatesOnlyTheName pins DecodeLeader to one allocation:
// the name string, decoded through a stack array.
func TestDecodeLeaderAllocatesOnlyTheName(t *testing.T) {
	var v [disk.PageWords]disk.Word
	if err := (Leader{Name: "leader.name", LastPN: 3}).Encode(&v); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if l, err := DecodeLeader(&v); err != nil || l.Name != "leader.name" {
			t.Fatalf("DecodeLeader = %+v, %v", l, err)
		}
	}); a != 1 {
		t.Errorf("DecodeLeader: %v allocs, want 1", a)
	}
}

// threePageFile formats a pack and writes a file of three full pages and an
// empty last one, returning its full name.
func threePageFile(tb testing.TB) (*FS, FN) {
	tb.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := Format(d)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := fs.Create("open.me")
	if err != nil {
		tb.Fatal(err)
	}
	p := pageOf(1)
	for pn := disk.Word(1); pn <= 3; pn++ {
		if err := f.WritePage(pn, &p, disk.PageBytes); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		tb.Fatal(err)
	}
	return fs, f.FN()
}

// TestOpenLabelReadsDoNotAllocate pins the cost of opening a file to the
// handle, whose hint vector starts in an array inside it, and the leader
// name: the label read that verifies the last-page hint goes through the
// handle's scratch and allocates nothing.
func TestOpenLabelReadsDoNotAllocate(t *testing.T) {
	fs, fn := threePageFile(t)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := fs.Open(fn); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("Open: %v allocs, want at most 2", a)
	}
}

func BenchmarkOpen(b *testing.B) {
	fs, fn := threePageFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Open(fn); err != nil {
			b.Fatal(err)
		}
	}
}
