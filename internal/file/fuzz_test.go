package file_test

import (
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/fsck"
)

// ladderPages is the fuzzed file's size: full interior pages 1..ladderPages
// and an empty last page after them.
const ladderPages = 12

// Hint-ladder fuzz operations, one per three input bytes (op, a, b).
const (
	opSetHint    = iota // SetHint(a, a wrong or at best accidental address chosen by b)
	opForget            // ForgetHints
	opReadPage          // ReadPage(a)
	opReadPages         // ReadPages over a run picked by a and b
	opWritePages        // WritePages over a run picked by a and b
	opSyncReopen        // Sync, then a fresh handle from the full name
	numOps
)

// FuzzHintLadder drives a file handle's hints with wrong addresses —
// another page of the same file, a free sector, an address off the disk, or
// none — between ForgetHints, single- and multi-page reads and writes, and
// leader rewrites. The labels are the truth: every read must return what
// was last written, and the pack must stay fsck-clean, whatever the hints
// said.
func FuzzHintLadder(f *testing.F) {
	f.Add([]byte{})
	var stale []byte
	for p := byte(0); p <= ladderPages+2; p++ {
		stale = append(stale, opSetHint, p, (p+3)*4) // page p's hint at page p+3's sector
	}
	stale = append(stale, opReadPages, 0, 0xFF, opSyncReopen, 0, 0)
	f.Add(stale)
	f.Add([]byte{
		opSetHint, 0, 4 * 5, opReadPage, 3, 0, opSyncReopen, 0, 0, // leader hint at page 5
		opSetHint, 0, 4*9 + 1, opReadPages, 2, 6, opSyncReopen, 0, 0, // leader hint at a free sector
	})
	f.Add([]byte{
		opWritePages, 0, 0xFF, opForget, 0, 0, opSetHint, 1, 2, opReadPages, 0, 0xFF,
		opSetHint, 6, 4*7 + 3, opWritePages, 4, 5, opReadPage, 6, 0, opSyncReopen, 0, 0,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		runHintLadder(t, in)
	})
}

// runHintLadder is one FuzzHintLadder execution.
func runHintLadder(t *testing.T, in []byte) {
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := file.Format(d)
	if err != nil {
		t.Fatal(err)
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fs.Create("ladder")
	if err != nil {
		t.Fatal(err)
	}
	var model [ladderPages + 1][disk.PageWords]disk.Word
	stamp := func(p, gen int) {
		for w := range model[p] {
			model[p][w] = disk.Word(p<<12 ^ gen<<8 ^ w)
		}
	}
	for p := 1; p <= ladderPages; p++ {
		stamp(p, 0)
		if err := h.WritePage(disk.Word(p), &model[p], disk.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := root.Insert("ladder", h.FN()); err != nil {
		t.Fatal(err)
	}
	truth := make([]disk.VDA, ladderPages+2)
	for p := range truth {
		if truth[p], err = h.PageAddr(disk.Word(p)); err != nil {
			t.Fatal(err)
		}
	}
	nsec := d.Geometry().NSectors()

	// span picks a run of interior pages from a and b.
	span := func(a, b byte) (disk.Word, int) {
		pn := 1 + int(a)%ladderPages
		return disk.Word(pn), 1 + int(b)%(ladderPages-pn+1)
	}
	buf := make([][disk.PageWords]disk.Word, ladderPages)
	for step := 0; step+3 <= len(in) && step < 3*64; step += 3 {
		op, a, b := in[step]%numOps, in[step+1], in[step+2]
		switch op {
		case opSetHint:
			pn := disk.Word(int(a) % (len(truth) + 3))
			var addr disk.VDA
			switch b % 4 {
			case 0:
				addr = truth[int(b/4)%len(truth)]
			case 1:
				addr = truth[len(truth)-1] + 1 + disk.VDA(b/4) // free sectors past the file
			case 2:
				addr = disk.VDA(nsec + int(b/4)) // off the disk
			case 3:
				addr = disk.NilVDA
			}
			h.SetHint(pn, addr)
		case opForget:
			h.ForgetHints()
		case opReadPage:
			pn := 1 + int(a)%(ladderPages+1)
			var page [disk.PageWords]disk.Word
			n, err := h.ReadPage(disk.Word(pn), &page)
			if err != nil {
				t.Fatalf("step %d: ReadPage(%d): %v", step/3, pn, err)
			}
			want := disk.PageBytes
			if pn == ladderPages+1 {
				want = 0
			}
			if n != want || (pn <= ladderPages && page != model[pn]) {
				t.Fatalf("step %d: ReadPage(%d) returned %d bytes or wrong words", step/3, pn, n)
			}
		case opReadPages:
			pn, n := span(a, b)
			if err := h.ReadPages(pn, buf[:n]); err != nil {
				t.Fatalf("step %d: ReadPages(%d, %d): %v", step/3, pn, n, err)
			}
			for i := 0; i < n; i++ {
				if buf[i] != model[int(pn)+i] {
					t.Fatalf("step %d: ReadPages(%d, %d): page %d wrong", step/3, pn, n, int(pn)+i)
				}
			}
		case opWritePages:
			pn, n := span(a, b)
			for i := 0; i < n; i++ {
				stamp(int(pn)+i, step/3+1)
				buf[i] = model[int(pn)+i]
			}
			if err := h.WritePages(pn, buf[:n]); err != nil {
				t.Fatalf("step %d: WritePages(%d, %d): %v", step/3, pn, n, err)
			}
		case opSyncReopen:
			if err := h.Sync(); err != nil {
				t.Fatalf("step %d: Sync: %v", step/3, err)
			}
			if h, err = fs.Open(h.FN()); err != nil {
				t.Fatalf("step %d: reopen: %v", step/3, err)
			}
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open(h.FN())
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= ladderPages; p++ {
		var page [disk.PageWords]disk.Word
		if _, err := g.ReadPage(disk.Word(p), &page); err != nil || page != model[p] {
			t.Fatalf("final read of page %d: %v (or wrong words)", p, err)
		}
	}
	rep, err := fsck.Check(d)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after the run: %v", rep.Strings())
	}
}
