package fsck

import (
	"fmt"
	"strings"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
)

// build formats a drive and populates it with nfiles synced, inserted files
// of pagesEach data pages.
func build(t testing.TB, nfiles, pagesEach int) (*disk.Drive, *file.FS, *dir.Directory) {
	t.Helper()
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
	for i := 0; i < nfiles; i++ {
		f, err := fs.Create(fmt.Sprintf("file-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		var v [disk.PageWords]disk.Word
		for pn := 1; pn <= pagesEach; pn++ {
			for w := range v {
				v[w] = disk.Word(i*100 + pn + w)
			}
			if err := f.WritePage(disk.Word(pn), &v, disk.PageBytes); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := root.Insert(fmt.Sprintf("file-%d", i), f.FN()); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	return d, fs, root
}

// mustCheck fails on infrastructure errors only.
func mustCheck(t *testing.T, d *disk.Drive) *Report {
	t.Helper()
	rep, err := Check(d)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rep
}

// rules collects the distinct rule names the report violated.
func rules(rep *Report) map[string]bool {
	got := make(map[string]bool)
	for _, v := range rep.Violations {
		got[v.Rule] = true
	}
	return got
}

func TestFreshFormattedPackIsClean(t *testing.T) {
	d, _, _ := build(t, 0, 0)
	rep := mustCheck(t, d)
	if !rep.OK() {
		t.Fatalf("fresh pack has violations:\n%s", strings.Join(rep.Strings(), "\n"))
	}
	if rep.Directories != 1 {
		t.Errorf("Directories = %d, want 1 (the root)", rep.Directories)
	}
}

func TestHealthyPopulatedPackIsClean(t *testing.T) {
	d, _, _ := build(t, 5, 3)
	rep := mustCheck(t, d)
	if !rep.OK() {
		t.Fatalf("healthy pack has violations:\n%s", strings.Join(rep.Strings(), "\n"))
	}
	// 5 user files + root + descriptor (+ possibly a boot file).
	if rep.FilesChecked < 7 {
		t.Errorf("FilesChecked = %d, want >= 7", rep.FilesChecked)
	}
	if rep.DirEntries < 5 {
		t.Errorf("DirEntries = %d, want >= 5", rep.DirEntries)
	}
}

func TestDetectsBrokenLink(t *testing.T) {
	d, fs, _ := build(t, 2, 3)
	fn, err := dir.ResolveName(fs, "file-0")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(fn)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := f.PageAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	// Point page 1's next link into nowhere, bypassing the write discipline.
	raw, _ := d.PeekLabel(addr)
	lbl := disk.LabelFromWords(raw)
	lbl.Next = 777
	d.ZapLabel(addr, lbl.Words())
	rep := mustCheck(t, d)
	if rep.OK() {
		t.Fatal("zapped next link went undetected")
	}
	if !rules(rep)[RuleChain] {
		t.Errorf("want a %s violation, got:\n%s", RuleChain, strings.Join(rep.Strings(), "\n"))
	}
}

func TestDetectsDoublyOwnedPage(t *testing.T) {
	d, fs, _ := build(t, 2, 2)
	fn, err := dir.ResolveName(fs, "file-1")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(fn)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := f.PageAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	// Stamp a free sector with a copy of page 1's label: two sectors now
	// claim the same absolute name, and the allocation map knows nothing
	// about the impostor.
	raw, _ := d.PeekLabel(addr)
	free := disk.VDA(d.Geometry().NSectors() - 1)
	d.ZapLabel(free, raw)
	rep := mustCheck(t, d)
	got := rules(rep)
	if !got[RuleOwner] {
		t.Errorf("want an %s violation, got:\n%s", RuleOwner, strings.Join(rep.Strings(), "\n"))
	}
	if !got[RuleBitmap] {
		t.Errorf("want a %s violation (impostor sector marked free), got:\n%s",
			RuleBitmap, strings.Join(rep.Strings(), "\n"))
	}
}

func TestDetectsOrphanFile(t *testing.T) {
	d, fs, _ := build(t, 1, 1)
	f, err := fs.Create("nameless")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Created but never inserted anywhere: reachable by no name.
	rep := mustCheck(t, d)
	if !rules(rep)[RuleOrphan] {
		t.Errorf("want an %s violation, got:\n%s", RuleOrphan, strings.Join(rep.Strings(), "\n"))
	}
}

func TestCheckIsReadOnlyAndDeterministic(t *testing.T) {
	run := func() (string, int64) {
		d, fs, _ := build(t, 3, 2)
		fn, err := dir.ResolveName(fs, "file-2")
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open(fn)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := f.PageAddr(1)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := d.PeekLabel(addr)
		lbl := disk.LabelFromWords(raw)
		lbl.Next = 999
		d.ZapLabel(addr, lbl.Words())
		w0 := d.Stats().Writes
		rep := mustCheck(t, d)
		if d.Stats().Writes != w0 {
			t.Fatal("Check wrote to the disk; fsck must only read")
		}
		return strings.Join(rep.Strings(), "\n"), d.Clock().Now().Nanoseconds()
	}
	v1, t1 := run()
	v2, t2 := run()
	if v1 != v2 {
		t.Errorf("two checks of identically damaged packs disagree:\n--\n%s\n--\n%s", v1, v2)
	}
	if t1 != t2 {
		t.Errorf("two checks took different simulated time: %d vs %d", t1, t2)
	}
}

// BenchmarkFsckCheck times one check of a clean pack of 64 files of 12
// pages: the label sweep into the table, every chain and leader, and the
// descriptor and directories.
func BenchmarkFsckCheck(b *testing.B) {
	d, _, _ := build(b, 64, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Check(d)
		if err != nil || !rep.OK() {
			b.Fatalf("check: %v %v", err, rep.Strings())
		}
	}
}
