package file

import (
	"errors"
	"testing"
	"testing/quick"

	"altoos/internal/disk"
	"altoos/internal/sim"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(d)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func pageOf(seed disk.Word) [disk.PageWords]disk.Word {
	var v [disk.PageWords]disk.Word
	for i := range v {
		v[i] = seed ^ disk.Word(i*7)
	}
	return v
}

func TestFormatAndMount(t *testing.T) {
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(d)
	if err != nil {
		t.Fatal(err)
	}
	if fs.RootDir().Leader != SysDirLeaderVDA {
		t.Errorf("root dir leader at %d, want %d", fs.RootDir().Leader, SysDirLeaderVDA)
	}

	fs2, err := Mount(d)
	if err != nil {
		t.Fatalf("Mount after Format: %v", err)
	}
	if fs2.RootDir() != fs.RootDir() {
		t.Errorf("mounted root %v != formatted root %v", fs2.RootDir(), fs.RootDir())
	}
	if fs2.Descriptor().Shape.Cylinders != d.Geometry().Cylinders {
		t.Error("mounted shape differs")
	}
	if fs2.Descriptor().NextSerial != fs.Descriptor().NextSerial {
		t.Errorf("serial lost: %d vs %d", fs2.Descriptor().NextSerial, fs.Descriptor().NextSerial)
	}
}

func TestMountUnformattedFails(t *testing.T) {
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(d); !errors.Is(err, ErrNoFS) {
		t.Fatalf("Mount of raw pack: got %v, want ErrNoFS", err)
	}
}

func TestCreateHasEmptyDataPage(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("test.dat")
	if err != nil {
		t.Fatal(err)
	}
	pn, l := f.LastPage()
	if pn != 1 || l != 0 {
		t.Errorf("new file last page = (%d, %d), want (1, 0)", pn, l)
	}
	if f.Size() != 0 {
		t.Errorf("new file size = %d", f.Size())
	}
	if f.Name() != "test.dat" {
		t.Errorf("leader name = %q", f.Name())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("rt.dat")
	if err != nil {
		t.Fatal(err)
	}
	p1 := pageOf(0x1111)
	p2 := pageOf(0x2222)
	p3 := pageOf(0x3333)
	if err := f.WritePage(1, &p1, disk.PageBytes); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(2, &p2, disk.PageBytes); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(3, &p3, 100); err != nil {
		t.Fatal(err)
	}
	if got := f.Size(); got != 2*disk.PageBytes+100 {
		t.Errorf("size = %d, want %d", got, 2*disk.PageBytes+100)
	}

	var buf [disk.PageWords]disk.Word
	n, err := f.ReadPage(1, &buf)
	if err != nil || n != disk.PageBytes || buf != p1 {
		t.Fatalf("page 1: n=%d err=%v match=%v", n, err, buf == p1)
	}
	n, err = f.ReadPage(3, &buf)
	if err != nil || n != 100 {
		t.Fatalf("page 3: n=%d err=%v", n, err)
	}
	if buf != p3 {
		t.Fatal("page 3 data mismatch")
	}
}

func TestReopenByFullName(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("persist.dat")
	if err != nil {
		t.Fatal(err)
	}
	p := pageOf(0xAAAA)
	if err := f.WritePage(1, &p, 200); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	g, err := fs.Open(f.FN())
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "persist.dat" {
		t.Errorf("leader name = %q", g.Name())
	}
	var buf [disk.PageWords]disk.Word
	n, err := g.ReadPage(1, &buf)
	if err != nil || n != 200 || buf != p {
		t.Fatalf("reopened read: n=%d err=%v", n, err)
	}
}

func TestLastPageInvariant(t *testing.T) {
	// Every page but the last is full; the last has L < 512. Filling the
	// last page appends a fresh empty one.
	fs := newFS(t)
	f, err := fs.Create("inv.dat")
	if err != nil {
		t.Fatal(err)
	}
	p := pageOf(1)
	if err := f.WritePage(1, &p, disk.PageBytes); err != nil {
		t.Fatal(err)
	}
	pn, l := f.LastPage()
	if pn != 2 || l != 0 {
		t.Errorf("after full write, last = (%d, %d), want (2, 0)", pn, l)
	}
	// Interior pages must stay full.
	if err := f.WritePage(1, &p, 100); !errors.Is(err, ErrBadArg) {
		t.Errorf("partial interior write: got %v, want ErrBadArg", err)
	}
	// Writing beyond the end is rejected.
	if err := f.WritePage(5, &p, 100); !errors.Is(err, ErrBadArg) {
		t.Errorf("write past end: got %v, want ErrBadArg", err)
	}
	if _, err := f.ReadPage(7, &p); !errors.Is(err, ErrBadArg) {
		t.Errorf("read past end: got %v, want ErrBadArg", err)
	}
}

func TestTruncate(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("tr.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		p := pageOf(disk.Word(i))
		if err := f.WritePage(disk.Word(i), &p, disk.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	free0 := fs.FreeCount()
	if err := f.Truncate(2, 77); err != nil {
		t.Fatal(err)
	}
	pn, l := f.LastPage()
	if pn != 2 || l != 77 {
		t.Errorf("after truncate, last = (%d, %d)", pn, l)
	}
	if got := fs.FreeCount(); got != free0+4 {
		t.Errorf("free count %d, want %d (4 pages back)", got, free0+4)
	}
	var buf [disk.PageWords]disk.Word
	if n, err := f.ReadPage(2, &buf); err != nil || n != 77 {
		t.Fatalf("page 2 after truncate: n=%d err=%v", n, err)
	}
	want := pageOf(2)
	if buf != want {
		t.Error("truncate damaged surviving page")
	}
}

func TestDelete(t *testing.T) {
	fs := newFS(t)
	free0 := fs.FreeCount()
	f, err := fs.Create("del.dat")
	if err != nil {
		t.Fatal(err)
	}
	p := pageOf(9)
	for i := 1; i <= 3; i++ {
		if err := f.WritePage(disk.Word(i), &p, disk.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	fn := f.FN()
	if err := f.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := fs.FreeCount(); got != free0 {
		t.Errorf("free count %d after delete, want %d", got, free0)
	}
	if _, err := fs.Open(fn); err == nil {
		t.Fatal("opened a deleted file")
	}
	if err := f.WritePage(1, &p, disk.PageBytes); !errors.Is(err, ErrBadArg) {
		t.Errorf("write to deleted handle: %v", err)
	}
}

func TestStaleLeaderHintRecoversViaLinks(t *testing.T) {
	// A full name with a wrong leader address must still work if recovery
	// can find the file. With no resolver installed, it must fail loudly —
	// never silently read the wrong page.
	fs := newFS(t)
	f, err := fs.Create("hint.dat")
	if err != nil {
		t.Fatal(err)
	}
	p := pageOf(0x55)
	if err := f.WritePage(1, &p, 300); err != nil {
		t.Fatal(err)
	}

	stale := f.FN()
	stale.Leader = 999 // wrong address
	if _, err := fs.Open(stale); err == nil {
		t.Fatal("opened with stale hint and no recovery installed")
	}

	// Install a resolver that knows the truth (standing in for the
	// directory layer) and retry.
	real := f.FN()
	fs.SetRecovery(Recovery{
		ResolveFV: func(fv disk.FV) (disk.VDA, error) {
			if fv == real.FV {
				return real.Leader, nil
			}
			return 0, ErrNotFound
		},
	})
	g, err := fs.Open(stale)
	if err != nil {
		t.Fatalf("open with resolver: %v", err)
	}
	var buf [disk.PageWords]disk.Word
	if n, err := g.ReadPage(1, &buf); err != nil || n != 300 || buf != p {
		t.Fatalf("read after recovery: n=%d err=%v", n, err)
	}
	if fs.Stats().FVResolves == 0 {
		t.Error("recovery not counted")
	}
}

func TestPlantedHintShortcutsAccess(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("installed.dat")
	if err != nil {
		t.Fatal(err)
	}
	p := pageOf(3)
	for i := 1; i <= 10; i++ {
		if err := f.WritePage(disk.Word(i), &p, disk.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := f.PageAddr(7)
	if err != nil {
		t.Fatal(err)
	}

	// A second handle with only the planted hint reads page 7 in one access.
	g, err := fs.Open(f.FN())
	if err != nil {
		t.Fatal(err)
	}
	g.ForgetHints()
	g.SetHint(7, addr)
	fs.ResetStats()
	var buf [disk.PageWords]disk.Word
	if _, err := g.ReadPage(7, &buf); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.HintHits != 1 || st.LinkChases != 0 {
		t.Errorf("hinted access: hits=%d chases=%d, want 1/0", st.HintHits, st.LinkChases)
	}

	// A wrong hint is detected and cured by link-chasing, never wrong data.
	h, err := fs.Open(f.FN())
	if err != nil {
		t.Fatal(err)
	}
	h.ForgetHints()
	h.SetHint(7, addr+1) // lie
	if _, err := h.ReadPage(7, &buf); err != nil {
		t.Fatalf("read with wrong hint: %v", err)
	}
	if buf != p {
		t.Fatal("wrong hint produced wrong data")
	}
}

func TestConsecutiveAllocationPreferred(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("seq.dat")
	if err != nil {
		t.Fatal(err)
	}
	p := pageOf(1)
	for i := 1; i <= 20; i++ {
		if err := f.WritePage(disk.Word(i), &p, disk.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	// On an empty disk the pages should be consecutive.
	a1, err := f.PageAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 20; i++ {
		ai, err := f.PageAddr(disk.Word(i))
		if err != nil {
			t.Fatal(err)
		}
		if ai != a1+disk.VDA(i-1) {
			t.Fatalf("page %d at %d, want consecutive from %d", i, ai, a1)
		}
	}
	if !f.Leader().MaybeConsecutive {
		t.Error("consecutive flag lost")
	}
	// §3.6: a program may compute page j's address as a_i + (j - i) and rely
	// on the label check to tell it whether the guess was right.
	guess := a1 + 14
	lbl, err := disk.ReadLabel(fs.Device(), guess, f.FN().FV, 15)
	if err != nil {
		t.Fatalf("consecutive guess failed: %v", err)
	}
	if lbl.PageNum != 15 {
		t.Error("guessed page has wrong number")
	}
}

func TestAllocationMapIsOnlyAHint(t *testing.T) {
	// Lie in the map (mark a busy page free): allocation must catch it via
	// the label check, pay "a little extra one-time disk activity", and
	// succeed elsewhere.
	fs := newFS(t)
	f, err := fs.Create("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	victim, err := f.PageAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	fs.Descriptor().Free.SetFree(victim) // the lie
	fs.ResetStats()

	g, err := fs.Create("b.dat")
	if err != nil {
		t.Fatalf("create with lying map: %v", err)
	}
	// a.dat's page must be intact.
	var buf [disk.PageWords]disk.Word
	if _, err := f.ReadPage(1, &buf); err != nil {
		t.Fatalf("victim page damaged: %v", err)
	}
	for pn := disk.Word(0); pn <= 1; pn++ {
		a, err := g.PageAddr(pn)
		if err != nil {
			t.Fatal(err)
		}
		if a == victim {
			t.Fatal("allocator handed out a busy page")
		}
	}
}

func TestDiskFull(t *testing.T) {
	d, err := disk.NewDrive(disk.Geometry{
		Name: "tiny", Cylinders: 2, Heads: 2, SectorsPerTrack: 6,
		RevTime: disk.Diablo31().RevTime, SeekSettle: disk.Diablo31().SeekSettle,
		SeekPerCyl: disk.Diablo31().SeekPerCyl,
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(d)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 30; i++ {
		if _, lastErr = fs.Create("x"); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrDiskFull) {
		t.Fatalf("got %v, want ErrDiskFull", lastErr)
	}
}

func TestLeaderDatesAdvance(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("dates.dat")
	if err != nil {
		t.Fatal(err)
	}
	created := f.Leader().Created
	p := pageOf(1)
	if err := f.WritePage(1, &p, 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open(f.FN())
	if err != nil {
		t.Fatal(err)
	}
	if g.Leader().Written <= created {
		t.Errorf("written date %v not after creation %v", g.Leader().Written, created)
	}
}

func TestLeaderRoundTripProperty(t *testing.T) {
	f := func(created, written, read uint32, rawName []byte, lastPN uint16, lastAddr uint16, consec bool) bool {
		if len(rawName) > MaxLeaderName {
			rawName = rawName[:MaxLeaderName]
		}
		l := Leader{
			Created:          wordsToTime(disk.Word(created>>16), disk.Word(created)),
			Written:          wordsToTime(disk.Word(written>>16), disk.Word(written)),
			Read:             wordsToTime(disk.Word(read>>16), disk.Word(read)),
			LastPN:           lastPN,
			LastAddr:         disk.VDA(lastAddr),
			MaybeConsecutive: consec,
		}
		if err := l.SetName(string(rawName)); err != nil {
			return false
		}
		var v [disk.PageWords]disk.Word
		l.Encode(&v)
		got, err := DecodeLeader(&v)
		return err == nil && got == l && got.Name() == string(rawName)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorRoundTripProperty(t *testing.T) {
	f := func(serial uint32, rootFID uint32, rootVer, rootAddr uint16, busy []uint16) bool {
		g := disk.Diablo31()
		bm := NewBitMap(g.NSectors())
		for _, b := range busy {
			bm.SetBusy(disk.VDA(int(b) % g.NSectors()))
		}
		d := &Descriptor{
			Shape:      g,
			Pack:       1,
			NextSerial: serial,
			RootDir: FN{
				FV:     disk.FV{FID: disk.FID(rootFID), Version: rootVer},
				Leader: disk.VDA(rootAddr),
			},
			Free: bm,
		}
		got, err := DecodeDescriptor(d.EncodeWords())
		if err != nil {
			return false
		}
		if got.NextSerial != d.NextSerial || got.RootDir != d.RootDir || got.Pack != 1 {
			return false
		}
		for i := 0; i < g.NSectors(); i++ {
			if got.Free.Busy(disk.VDA(i)) != bm.Busy(disk.VDA(i)) {
				return false
			}
		}
		return got.Shape.Cylinders == g.Cylinders && got.Shape.RevTime == g.RevTime
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorRejectsDamage(t *testing.T) {
	g := disk.Diablo31()
	d := &Descriptor{Shape: g, NextSerial: 1, Free: NewBitMap(g.NSectors())}
	w := d.EncodeWords()

	bad := append([]disk.Word(nil), w...)
	bad[0] = 0x1234
	if _, err := DecodeDescriptor(bad); !errors.Is(err, ErrDescriptor) {
		t.Error("accepted bad magic")
	}
	if _, err := DecodeDescriptor(w[:10]); !errors.Is(err, ErrDescriptor) {
		t.Error("accepted truncated descriptor")
	}
	trunc := append([]disk.Word(nil), w[:descFixed+3]...)
	if _, err := DecodeDescriptor(trunc); !errors.Is(err, ErrDescriptor) {
		t.Error("accepted truncated map")
	}
}

func TestBigFileAcrossCylinders(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("big.dat")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 100
	for i := 1; i <= pages; i++ {
		p := pageOf(disk.Word(i))
		if err := f.WritePage(disk.Word(i), &p, disk.PageBytes); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	// Re-open and read everything back, verifying content.
	g, err := fs.Open(f.FN())
	if err != nil {
		t.Fatal(err)
	}
	var buf [disk.PageWords]disk.Word
	for i := 1; i <= pages; i++ {
		if _, err := g.ReadPage(disk.Word(i), &buf); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		want := pageOf(disk.Word(i))
		if buf != want {
			t.Fatalf("page %d corrupted", i)
		}
	}
}

func TestRandomisedFileOperations(t *testing.T) {
	// Model-based test: random writes/truncates against an in-memory model.
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
		if err != nil {
			return false
		}
		fs, err := Format(drv)
		if err != nil {
			return false
		}
		fl, err := fs.Create("model.dat")
		if err != nil {
			return false
		}
		model := map[disk.Word][disk.PageWords]disk.Word{}
		modelLast, modelLen := disk.Word(1), 0
		for step := 0; step < 40; step++ {
			switch r.Intn(4) {
			case 0, 1: // write some page
				pn := disk.Word(1 + r.Intn(int(modelLast)))
				p := pageOf(r.Word())
				length := disk.PageBytes
				if pn == modelLast {
					length = r.Intn(disk.PageBytes + 1)
				}
				if err := fl.WritePage(pn, &p, length); err != nil {
					return false
				}
				model[pn] = p
				if pn == modelLast {
					if length == disk.PageBytes {
						modelLast++
						modelLen = 0
						model[modelLast] = [disk.PageWords]disk.Word{}
					} else {
						modelLen = length
					}
				}
			case 2: // truncate
				if modelLast > 1 {
					to := disk.Word(1 + r.Intn(int(modelLast)-1))
					ln := r.Intn(disk.PageBytes)
					if err := fl.Truncate(to, ln); err != nil {
						return false
					}
					for pn := to + 1; pn <= modelLast; pn++ {
						delete(model, pn)
					}
					modelLast, modelLen = to, ln
				}
			case 3: // verify a random page
				pn := disk.Word(1 + r.Intn(int(modelLast)))
				var buf [disk.PageWords]disk.Word
				n, err := fl.ReadPage(pn, &buf)
				if err != nil {
					return false
				}
				if pn == modelLast && n != modelLen {
					return false
				}
				want := model[pn]
				words := (n + 1) / 2
				for i := 0; i < words; i++ {
					if buf[i] != want[i] {
						return false
					}
				}
			}
		}
		lp, ll := fl.LastPage()
		return lp == modelLast && ll == modelLen
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
