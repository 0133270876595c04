package dir

import (
	"fmt"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
)

// filledRoot returns a root directory holding n entries in all (the two
// standard ones included), named like a busy pack's files.
func filledRoot(tb testing.TB, n int) *Directory {
	tb.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		tb.Fatal(err)
	}
	root, err := InitRoot(fs)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 2; i < n; i++ {
		fn := file.FN{FV: disk.FV{FID: disk.FirstUserFID + disk.FID(i), Version: 1}, Leader: disk.VDA(100 + i)}
		if err := root.Insert(fmt.Sprintf("f%05d", i), fn); err != nil {
			tb.Fatal(err)
		}
	}
	return root
}

// TestLookupAllocatesNothing pins the name path's steady state: a lookup
// by name or by FV in a 200-entry, multi-page directory compares entries in
// place and allocates nothing.
func TestLookupAllocatesNothing(t *testing.T) {
	root := filledRoot(t, 200)
	if pn := root.File().LastPN(); pn < 2 {
		t.Fatalf("directory has %d page, want several", pn)
	}
	fn, err := root.Lookup("f00150")
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := root.Lookup("f00150"); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Lookup: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, err := root.LookupFV(fn.FV); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("LookupFV: %v allocs, want 0", a)
	}
}

// TestLoadAllocationsIndependentOfSize pins Load's cost to a constant: one
// entries slice and one string for all the names, at any directory size.
func TestLoadAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		root := filledRoot(t, n)
		return testing.AllocsPerRun(20, func() {
			entries, err := root.Load()
			if err != nil || len(entries) != n {
				t.Fatalf("Load: %d entries, %v; want %d", len(entries), err, n)
			}
		})
	}
	small, large := allocs(20), allocs(200)
	if small != large || large > 2 {
		t.Errorf("Load allocs: %v at 20 entries, %v at 200; want the same, at most 2", small, large)
	}
}

func BenchmarkLookup(b *testing.B) {
	root := filledRoot(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Lookup("f00150"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoad(b *testing.B) {
	root := filledRoot(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Load(); err != nil {
			b.Fatal(err)
		}
	}
}
