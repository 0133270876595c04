package file

import (
	"testing"

	"altoos/internal/disk"
)

// TestDecodeLeaderAllocatesNothing pins DecodeLeader to no allocation: the
// name stays in the Leader's array until someone asks for the string.
func TestDecodeLeaderAllocatesNothing(t *testing.T) {
	var v [disk.PageWords]disk.Word
	l := Leader{LastPN: 3}
	if err := l.SetName("leader.name"); err != nil {
		t.Fatal(err)
	}
	l.Encode(&v)
	if a := testing.AllocsPerRun(100, func() {
		if got, err := DecodeLeader(&v); err != nil || got != l {
			t.Fatalf("DecodeLeader = %+v, %v", got, err)
		}
	}); a != 0 {
		t.Errorf("DecodeLeader: %v allocs, want 0", a)
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
// handle, whose hint vector starts in an array inside it: the leader decodes
// in place, and the label read that verifies the last-page hint goes through
// the handle's scratch.
func TestOpenLabelReadsDoNotAllocate(t *testing.T) {
	fs, fn := threePageFile(t)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := fs.Open(fn); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("Open: %v allocs, want at most 1", a)
	}
}

// TestOpenIntoAllocatesNothing pins the re-prime: a handle reused for
// another open allocates nothing, and its name is built once per open.
func TestOpenIntoAllocatesNothing(t *testing.T) {
	fs, fn := threePageFile(t)
	f := new(File)
	if a := testing.AllocsPerRun(20, func() {
		if err := fs.OpenInto(f, fn); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("OpenInto: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if f.Name() != "open.me" || f.Leader().LastPN != 4 {
			t.Fatalf("Name %q, leader %+v", f.Name(), f.Leader())
		}
	}); a != 0 {
		t.Errorf("Name and Leader after the first Name: %v allocs, want 0", a)
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
