package stream

import (
	"bytes"
	"testing"

	"altoos/internal/disk"
)

// The transfer windows are invisible in the Stream interface; these tests pin
// the two properties that matter: sequential traffic actually goes through
// chained transfers, and the windows never change what a reader observes.

// TestDiskStreamReadAheadWindow checks that a sequential read of a multi-page
// file uses chained transfers and still returns exactly the written bytes.
func TestDiskStreamReadAheadWindow(t *testing.T) {
	r := newRig(t)
	s := r.open(t, "ra.dat", WriteMode)
	want := make([]byte, 6*disk.PageBytes+37)
	for i := range want {
		want[i] = byte(i*7 + i>>8)
	}
	for _, b := range want {
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	d, ok := r.fs.Device().(*disk.Drive)
	if !ok {
		t.Fatal("rig device is not a *disk.Drive")
	}
	before := d.Stats().Chains

	f, err := r.fs.Open(s.File().FN())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewDisk(f, r.z, r.m, ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read-ahead returned wrong bytes: %d vs %d, first divergence at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if d.Stats().Chains == before {
		t.Error("sequential read of a 7-page file issued no chained transfer")
	}
}

// TestDiskStreamWriteBehindWindow rewrites a file sequentially in UpdateMode:
// the interior pages should retire through the write-behind window as chains,
// the stream must serve its own unflushed window back to a reader, and after
// Close the disk must hold the new bytes.
func TestDiskStreamWriteBehindWindow(t *testing.T) {
	r := newRig(t)
	s := r.open(t, "wb.dat", UpdateMode)
	n := 5*disk.PageBytes + 11
	for i := 0; i < n; i++ {
		if err := s.Put(byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}

	d, ok := r.fs.Device().(*disk.Drive)
	if !ok {
		t.Fatal("rig device is not a *disk.Drive")
	}
	before := d.Stats().Chains

	// Sequential rewrite of every byte: interior pages go dirty one after
	// another, exactly the write-behind pattern.
	want := make([]byte, n)
	for i := 0; i < n; i++ {
		want[i] = byte(255 - i%251)
		if err := s.Put(want[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Read-your-writes: seek back while pages may still sit in the window.
	if err := s.Seek(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b, err := s.Get()
		if err != nil {
			t.Fatalf("Get at %d: %v", i, err)
		}
		if b != want[i] {
			t.Fatalf("byte %d read back as %#x before flush, want %#x", i, b, want[i])
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Chains == before {
		t.Error("sequential rewrite of a 6-page file issued no chained transfer")
	}

	// A fresh stream sees the new contents from the disk.
	f, err := r.fs.Open(s.File().FN())
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewDisk(f, r.z, r.m, ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("write-behind lost data: first divergence at %d", firstDiff(got, want))
	}
}

// TestPageMovesAllocateNothing pins the single-page path's cost: loading a
// page the windows do not hold, and flushing a page straight to the disk,
// move it through the stream's staging page and allocate nothing.
func TestPageMovesAllocateNothing(t *testing.T) {
	r := newRig(t)
	s := r.open(t, "stage.dat", UpdateMode)
	// Page 1 full, page 2 the short last page: neither window serves them.
	for i := 0; i < disk.PageBytes+10; i++ {
		if err := s.Put(byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	get := func(pos int) {
		if err := s.Seek(pos); err != nil {
			t.Fatal(err)
		}
		if b, err := s.Get(); err != nil || b != byte(pos) {
			t.Fatalf("Get at %d = %d, %v; want %d", pos, b, err, byte(pos))
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		get(3)                  // loads page 1
		get(disk.PageBytes + 3) // loads page 2
	}); a != 0 {
		t.Errorf("a page load: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := s.Seek(disk.PageBytes + 5); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(5); err != nil { // the byte already there
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a page flush: %v allocs, want 0", a)
	}
}
