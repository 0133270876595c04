package core

import (
	"bytes"
	"strings"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/junta"
	"altoos/internal/stream"
	"altoos/internal/zone"
)

func newSys(t *testing.T) (*System, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	s, err := New(Config{Display: &out})
	if err != nil {
		t.Fatal(err)
	}
	return s, &out
}

func TestEndToEndFileLifecycle(t *testing.T) {
	s, _ := newSys(t)
	w, err := s.CreateStream("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.PutString(w, "hello from 1979"); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := s.OpenStream("hello.txt", stream.ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAll(r)
	r.Close()
	if err != nil || string(got) != "hello from 1979" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

func TestAttachExistingPack(t *testing.T) {
	s, _ := newSys(t)
	w, _ := s.CreateStream("persistent.txt")
	stream.PutString(w, "still here")
	w.Close()

	// "Remove the pack and mount it on another machine."
	s2, err := New(Config{Drive: s.Drive, Display: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s2.OpenStream("persistent.txt", stream.ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := stream.ReadAll(r)
	r.Close()
	if string(got) != "still here" {
		t.Fatalf("got %q", got)
	}
}

func TestAttachDamagedPackScavengesAutomatically(t *testing.T) {
	s, _ := newSys(t)
	w, _ := s.CreateStream("survivor.txt")
	stream.PutString(w, "data")
	w.Close()
	// Destroy the descriptor so Mount fails.
	df, err := s.FS.Open(s.FS.DescriptorFN())
	if err != nil {
		t.Fatal(err)
	}
	lastPN, _ := df.LastPage()
	for pn := disk.Word(0); pn <= lastPN; pn++ {
		a, _ := df.PageAddr(pn)
		s.Drive.ZapLabel(a, disk.FreeLabelWords())
	}

	s2, err := New(Config{Drive: s.Drive, Display: &bytes.Buffer{}})
	if err != nil {
		t.Fatalf("attach with damaged descriptor: %v", err)
	}
	r, err := s2.OpenStream("survivor.txt", stream.ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := stream.ReadAll(r)
	r.Close()
	if string(got) != "data" {
		t.Fatalf("got %q", got)
	}
}

func TestFullHintLadderThroughScavenger(t *testing.T) {
	// The deepest §3.6 recovery: a program holds a full name whose hint is
	// stale AND the directories' address hints are stale too, so only the
	// Scavenger can cure the lookup. The wiring in core must make a plain
	// Open succeed anyway.
	s, _ := newSys(t)
	f, err := s.CreateFile("deep.dat")
	if err != nil {
		t.Fatal(err)
	}
	var page [disk.PageWords]disk.Word
	page[0] = 0x1979
	if err := f.WritePage(1, &page, 2); err != nil {
		t.Fatal(err)
	}
	f.Sync()

	// Corrupt the root directory's entry address hints by hand.
	root, _ := s.Root()
	bad := f.FN()
	bad.Leader = 4321
	if err := root.Update("deep.dat", bad); err != nil {
		t.Fatal(err)
	}

	stale := f.FN()
	stale.Leader = 1234
	g, err := s.FS.Open(stale)
	if err != nil {
		t.Fatalf("open through full ladder: %v", err)
	}
	var buf [disk.PageWords]disk.Word
	if _, err := g.ReadPage(1, &buf); err != nil || buf[0] != 0x1979 {
		t.Fatalf("ladder read: %v", err)
	}
}

func TestJuntaRoundTripThroughSystem(t *testing.T) {
	s, _ := newSys(t)
	// Allocate from the system zone, then Junta it away.
	if _, err := s.Zone.Alloc(100); err != nil {
		t.Fatal(err)
	}
	freed, words, err := s.Levels.Do(junta.LevelDiskStream)
	if err != nil {
		t.Fatal(err)
	}
	if s.Zone != nil {
		t.Fatal("system zone survived its own removal")
	}
	if words <= 0 {
		t.Fatal("nothing freed")
	}
	// The program uses the space for its own allocator.
	size := freed.Size()
	if size > 0x7FFF {
		size = 0x7FFF
	}
	z, err := zone.New(s.Mem, freed.Start, size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.Alloc(2000); err != nil {
		t.Fatal(err)
	}
	// CounterJunta brings the system back, with a fresh zone.
	if err := s.Levels.CounterJunta(); err != nil {
		t.Fatal(err)
	}
	if s.Zone == nil || s.OS.Zone == nil {
		t.Fatal("zone not restored")
	}
	if _, err := s.Zone.Alloc(50); err != nil {
		t.Fatal(err)
	}
	// Streams work again end to end.
	w, err := s.CreateStream("after-junta.txt")
	if err != nil {
		t.Fatal(err)
	}
	stream.PutString(w, "ok")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveWorldAndBoot(t *testing.T) {
	s, _ := newSys(t)
	s.Mem.Store(0x3000, 0xCAFE)
	s.CPU.PC = 0x3000
	if _, err := s.SaveWorld(); err != nil {
		t.Fatal(err)
	}
	s.Mem.Store(0x3000, 0)
	s.CPU.PC = 0
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	if s.Mem.Load(0x3000) != 0xCAFE || s.CPU.PC != 0x3000 {
		t.Fatal("boot did not restore the saved world")
	}
}

func TestExecutiveThroughSystem(t *testing.T) {
	s, out := newSys(t)
	w, _ := s.CreateStream("doc.txt")
	stream.PutString(w, "document body")
	w.Close()

	s.TypeAhead("ls\ntype doc.txt\nquit\n")
	if err := s.RunExecutive(); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "doc.txt") || !strings.Contains(text, "document body") {
		t.Fatalf("executive output:\n%s", text)
	}
}

func TestScavengeAndCompactThroughSystem(t *testing.T) {
	s, _ := newSys(t)
	// Interleave two files to fragment them.
	a, _ := s.CreateFile("a.dat")
	b, _ := s.CreateFile("b.dat")
	var page [disk.PageWords]disk.Word
	for i := 1; i <= 6; i++ {
		page[0] = disk.Word(i)
		if err := a.WritePage(disk.Word(i), &page, disk.PageBytes); err != nil {
			t.Fatal(err)
		}
		page[0] = disk.Word(100 + i)
		if err := b.WritePage(disk.Word(i), &page, disk.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	a.Sync()
	b.Sync()

	rep, err := s.Scavenge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesFound < 4 {
		t.Errorf("scavenge found %d files", rep.FilesFound)
	}
	crep, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if crep.PagesMoved == 0 {
		t.Error("compaction moved nothing on a fragmented disk")
	}
	// The live FS keeps working after both.
	g, err := s.OpenByName("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	var buf [disk.PageWords]disk.Word
	if _, err := g.ReadPage(3, &buf); err != nil || buf[0] != 3 {
		t.Fatalf("post-compact read: %v (word %d)", err, buf[0])
	}
	if !g.Leader().MaybeConsecutive {
		t.Error("file not consecutive after compaction")
	}
}

func TestInstalledProgramHints(t *testing.T) {
	// §3.6's installation scheme: a program records hints for its auxiliary
	// files in a state file; a warm start reaches its data in one disk
	// access per page; if a scratch file is deleted, the hint fails cleanly
	// and the program reinstalls.
	s, _ := newSys(t)
	scratch, err := s.CreateFile("editor.scratch")
	if err != nil {
		t.Fatal(err)
	}
	var page [disk.PageWords]disk.Word
	page[0] = 0xED17
	if err := scratch.WritePage(1, &page, 2); err != nil {
		t.Fatal(err)
	}
	addr, err := scratch.PageAddr(1)
	if err != nil {
		t.Fatal(err)
	}

	// "Install": save (fn, page, addr) in a state file.
	st, _ := s.CreateStream("editor.state")
	stream.PutWord(st, uint16(scratch.FN().FV.FID>>16))
	stream.PutWord(st, uint16(scratch.FN().FV.FID))
	stream.PutWord(st, scratch.FN().FV.Version)
	stream.PutWord(st, uint16(scratch.FN().Leader))
	stream.PutWord(st, 1)
	stream.PutWord(st, uint16(addr))
	st.Close()

	// Warm start: read the state file, access the page directly.
	rd, _ := s.OpenStream("editor.state", stream.ReadMode)
	var ws [6]uint16
	for i := range ws {
		ws[i], err = stream.GetWord(rd)
		if err != nil {
			t.Fatal(err)
		}
	}
	rd.Close()
	fn := file.FN{
		FV:     disk.FV{FID: disk.FID(ws[0])<<16 | disk.FID(ws[1]), Version: ws[2]},
		Leader: disk.VDA(ws[3]),
	}
	h, err := s.FS.Open(fn)
	if err != nil {
		t.Fatal(err)
	}
	h.ForgetHints()
	h.SetHint(disk.Word(ws[4]), disk.VDA(ws[5]))
	s.FS.ResetStats()
	var buf [disk.PageWords]disk.Word
	if _, err := h.ReadPage(1, &buf); err != nil || buf[0] != 0xED17 {
		t.Fatalf("hinted warm start failed: %v", err)
	}
	if s.FS.Stats().HintHits != 1 {
		t.Error("warm start did not use the planted hint")
	}

	// Delete the scratch file; the stale hint must fail loudly, telling the
	// program to reinstall — never return wrong data.
	root, _ := s.Root()
	root.Remove("editor.scratch")
	sc2, _ := s.FS.Open(scratch.FN())
	if err := sc2.Delete(); err != nil {
		t.Fatal(err)
	}
	h2, err := s.FS.Open(fn)
	if err == nil {
		h2.ForgetHints()
		h2.SetHint(disk.Word(ws[4]), disk.VDA(ws[5]))
		if _, err := h2.ReadPage(1, &buf); err == nil {
			t.Fatal("read from deleted scratch file succeeded")
		}
	}
}

func TestExecutiveScavengeKeepsSystemFSInSync(t *testing.T) {
	s, out := newSys(t)
	w, _ := s.CreateStream("sync.txt")
	stream.PutString(w, "stay in sync")
	w.Close()
	if _, err := s.Exec.Execute("scavenge"); err != nil {
		t.Fatal(err)
	}
	if s.OS.FS != s.FS {
		t.Fatal("Executive scavenge desynchronized OS.FS from System.FS")
	}
	if !strings.Contains(out.String(), "scavenge:") {
		t.Fatalf("no report: %q", out.String())
	}
	// The live FS works after the in-place adoption.
	r, err := s.OpenStream("sync.txt", stream.ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := stream.ReadAll(r)
	r.Close()
	if string(got) != "stay in sync" {
		t.Fatalf("got %q", got)
	}
	if _, err := s.Exec.Execute("compact"); err != nil {
		t.Fatal(err)
	}
	if s.OS.FS != s.FS {
		t.Fatal("Executive compact desynchronized the FS")
	}
}

// TestBootTouchesFewPages pins what a boot costs in main memory: the
// paged store gives a page storage only on its first nonzero store, and a
// freshly booted System or Diskless Alto stores into a handful of its 256
// pages, not the whole 128 KB.
func TestBootTouchesFewPages(t *testing.T) {
	s, _ := newSys(t)
	d, err := NewDiskless(DisklessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"System": s.Mem.TouchedPages(), "Diskless": d.Mem.TouchedPages()} {
		if n > 4 {
			t.Errorf("%s boot touches %d pages, want at most 4", name, n)
		}
	}
}
