package file

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/sim"
)

// recordingDevice passes every operation to the drive below it and, while
// on, records the address each one went to.
type recordingDevice struct {
	disk.Device
	on    bool
	addrs []disk.VDA
}

func (r *recordingDevice) Do(op *disk.Op) error {
	if r.on {
		r.addrs = append(r.addrs, op.Addr)
	}
	return r.Device.Do(op)
}

// fileOfPages creates a file with n full data pages and its empty last page
// on fs, page p holding pageOf(p), and returns it with every page's true
// address, leader included.
func fileOfPages(tb testing.TB, fs *FS, name string, n int) (*File, []disk.VDA) {
	tb.Helper()
	f, err := fs.Create(name)
	if err != nil {
		tb.Fatal(err)
	}
	for p := 1; p <= n; p++ {
		v := pageOf(disk.Word(p))
		if err := f.WritePage(disk.Word(p), &v, disk.PageBytes); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		tb.Fatal(err)
	}
	addrs := make([]disk.VDA, int(f.LastPN())+1)
	for p := range addrs {
		if addrs[p], err = f.PageAddr(disk.Word(p)); err != nil {
			tb.Fatal(err)
		}
	}
	return f, addrs
}

// sortedProbes is the reference for locateByLinks' disk traffic: the order
// the hint map's keys took when they were sorted by distance from pn, ties
// to the lower page, each probed until one verifies (the leader named in the
// full name when none does), then the link chase from that start to pn.
func sortedProbes(hints map[disk.Word]disk.VDA, truth []disk.VDA, pn disk.Word) []disk.VDA {
	dist := func(p disk.Word) int { return max(int(p)-int(pn), int(pn)-int(p)) }
	cands := make([]disk.Word, 0, len(hints))
	for p := range hints {
		cands = append(cands, p)
	}
	slices.SortFunc(cands, func(a, b disk.Word) int {
		return cmp.Or(cmp.Compare(dist(a), dist(b)), cmp.Compare(a, b))
	})
	var probes []disk.VDA
	start, found := disk.Word(0), false
	for _, p := range cands {
		probes = append(probes, hints[p])
		if int(p) < len(truth) && hints[p] == truth[p] {
			start, found = p, true
			break
		}
	}
	if !found {
		probes = append(probes, truth[0])
	}
	for cur := start; cur != pn; {
		probes = append(probes, truth[cur])
		if cur < pn {
			cur++
		} else {
			cur--
		}
	}
	return probes
}

// TestLocateByLinksProbeOrder plants random hint sets — correct, stale and
// beyond the last page — and checks that locateByLinks reads labels at
// exactly the addresses, in exactly the order, that probing the sorted
// candidate list gives.
func TestLocateByLinksProbeOrder(t *testing.T) {
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingDevice{Device: d}
	fs, err := Format(rec)
	if err != nil {
		t.Fatal(err)
	}
	// 47 data pages: the hint vector outgrows the handle's inline array.
	f, truth := fileOfPages(t, fs, "probe.order", 47)
	nsec := d.Geometry().NSectors()
	rnd := sim.NewRand(24)
	for trial := 0; trial < 400; trial++ {
		f.ForgetHints()
		if rnd.Bool(1, 4) {
			f.SetHint(0, disk.NilVDA) // no leader hint either
		}
		span := len(truth) + 4 // a few hints past the last page
		for p := 0; p < span; p++ {
			switch rnd.Intn(4) {
			case 0:
				if p < len(truth) {
					f.SetHint(disk.Word(p), truth[p])
				}
			case 1:
				// A stale hint: another page's sector, or any sector at all.
				a := disk.VDA(rnd.Intn(nsec))
				if rnd.Bool(1, 2) {
					a = truth[rnd.Intn(len(truth))]
				}
				if p < len(truth) && a == truth[p] {
					continue
				}
				if p == 0 && slices.Contains(truth, a) {
					// Page 0's check pattern carries page number 0, the
					// check action's wildcard, so any page of the file
					// passes it; keep the leader's stale hints off the file.
					continue
				}
				f.SetHint(disk.Word(p), a)
			}
		}
		planted := map[disk.Word]disk.VDA{}
		for p := 0; p < span; p++ {
			if a, ok := f.Hint(disk.Word(p)); ok {
				planted[disk.Word(p)] = a
			}
		}
		pn := disk.Word(rnd.Intn(len(truth)))
		want := sortedProbes(planted, truth, pn)

		rec.on, rec.addrs = true, rec.addrs[:0]
		got, err := f.locateByLinks(pn)
		rec.on = false
		if err != nil {
			t.Fatalf("trial %d: locateByLinks(%d): %v", trial, pn, err)
		}
		if got != truth[pn] {
			t.Fatalf("trial %d: locateByLinks(%d) = %d, want %d", trial, pn, got, truth[pn])
		}
		if !slices.Equal(rec.addrs, want) {
			t.Fatalf("trial %d: locateByLinks(%d) with hints %v probed\n%v\nwant\n%v",
				trial, pn, planted, rec.addrs, want)
		}
	}
}

// TestSetHintNilDrops checks that planting disk.NilVDA forgets a hint, and
// that hints past the handle's inline array read back like any other.
func TestSetHintNilDrops(t *testing.T) {
	fs := newFS(t)
	f, err := fs.Create("nil.hint")
	if err != nil {
		t.Fatal(err)
	}
	far := disk.Word(3 * inlineHints)
	f.SetHint(far, 123)
	f.SetHint(5, 77)
	if a, ok := f.Hint(far); !ok || a != 123 {
		t.Fatalf("Hint(%d) = %d, %v; want 123, true", far, a, ok)
	}
	f.SetHint(5, disk.NilVDA)
	f.SetHint(far, disk.NilVDA)
	f.SetHint(far+9, disk.NilVDA) // past the vector: nothing to drop
	for _, pn := range []disk.Word{5, far, far + 9} {
		if a, ok := f.Hint(pn); ok {
			t.Errorf("Hint(%d) = %d after SetHint(NilVDA); want none", pn, a)
		}
	}
	if a, ok := f.Hint(0); !ok || a != f.FN().Leader {
		t.Errorf("Hint(0) = %d, %v; want the leader %d", a, ok, f.FN().Leader)
	}
}

// thirtyTwoPages returns a file of 32 full interior pages and buffers for
// all of them, after one ReadPages and WritePages has primed the handle's
// hints and the FS's chain scratch.
func thirtyTwoPages(tb testing.TB) (*FS, *File, [][disk.PageWords]disk.Word) {
	tb.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := Format(d)
	if err != nil {
		tb.Fatal(err)
	}
	f, _ := fileOfPages(tb, fs, "thirty.two", 32)
	pages := make([][disk.PageWords]disk.Word, 32)
	if err := f.ReadPages(1, pages); err != nil {
		tb.Fatal(err)
	}
	if err := f.WritePages(1, pages); err != nil {
		tb.Fatal(err)
	}
	return fs, f, pages
}

// TestReadPagesAllocatesNothing pins the bulk path: once the FS has lent
// out its chain scratch, a whole-file ReadPages and WritePages costs no
// allocation, on the same handle or on a fresh one beyond the handle itself
// and its leader name.
func TestReadPagesAllocatesNothing(t *testing.T) {
	fs, f, pages := thirtyTwoPages(t)
	if a := testing.AllocsPerRun(20, func() {
		if err := f.ReadPages(1, pages); err != nil {
			t.Fatal(err)
		}
		if err := f.WritePages(1, pages); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("ReadPages+WritePages: %v allocs, want 0", a)
	}
	fn := f.FN()
	if a := testing.AllocsPerRun(20, func() {
		g, err := fs.Open(fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ReadPages(1, pages); err != nil {
			t.Fatal(err)
		}
		if err := g.WritePages(1, pages); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("Open+ReadPages+WritePages: %v allocs, want at most 2 (the handle and its name)", a)
	}
	for i := range pages {
		if pages[i] != pageOf(disk.Word(i+1)) {
			t.Fatalf("page %d changed", i+1)
		}
	}
}

// BenchmarkLocateByLinks times a ladder climb through stale hints: every
// fourth page of a 32-page file carries one, every eighth a correct one.
func BenchmarkLocateByLinks(b *testing.B) {
	climb := staleLadder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		climb()
	}
}

// TestLocateByLinksAllocatesNothing pins BenchmarkLocateByLinks at zero
// allocations: the stale hints it probes fail their checks without building
// a *disk.CheckError.
func TestLocateByLinksAllocatesNothing(t *testing.T) {
	if a := testing.AllocsPerRun(100, staleLadder(t)); a != 0 {
		t.Errorf("a ladder climb through stale hints: %v allocs, want 0", a)
	}
}

// staleLadder returns one BenchmarkLocateByLinks climb: plant the hints on
// a 32-page file, then locate page 27 by links.
func staleLadder(tb testing.TB) func() {
	_, f, _ := thirtyTwoPages(tb)
	truth := make([]disk.VDA, 33)
	for p := range truth {
		truth[p] = f.hint(disk.Word(p))
	}
	return func() {
		f.ForgetHints()
		for p := 4; p < len(truth); p += 4 {
			a := truth[p]
			if p%8 != 0 {
				a = truth[p-1]
			}
			f.SetHint(disk.Word(p), a)
		}
		if _, err := f.locateByLinks(disk.Word(27)); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkReadPages times a whole 32-page file read as chained transfers
// through a primed handle.
func BenchmarkReadPages(b *testing.B) {
	_, f, pages := thirtyTwoPages(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.ReadPages(1, pages); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStaleLeaderHintAtDataPage plants the leader's hint at one of the
// file's own data pages. Page 0's check pattern cannot carry the page
// number (0 is the check wildcard), so it checks the back link instead: the
// hint must fail its check, not pass it — a leader rewrite through it would
// overwrite the data page.
func TestStaleLeaderHintAtDataPage(t *testing.T) {
	fs := newFS(t)
	f, truth := fileOfPages(t, fs, "leader.hint", 4)
	var v [disk.PageWords]disk.Word
	if _, err := f.ReadPage(1, &v); err != nil { // dirties the leader
		t.Fatal(err)
	}
	f.SetHint(0, truth[2])
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if a, ok := f.Hint(0); !ok || a != truth[0] {
		t.Errorf("leader hint = %d, %v after Sync; want the leader %d", a, ok, truth[0])
	}
	for p := 1; p <= 4; p++ {
		if _, err := f.ReadPage(disk.Word(p), &v); err != nil || v != pageOf(disk.Word(p)) {
			t.Fatalf("page %d after a leader write through a stale hint: %v (or wrong words)", p, err)
		}
	}
}

// TestChainScratchAcrossGoroutines moves pages through two handles on one
// FS from two goroutines at once, so the chain scratch the FS lends is
// contended: each transfer must still see only its own pages. Run it under
// -race (make race).
func TestChainScratchAcrossGoroutines(t *testing.T) {
	fs := newFS(t)
	var files [2]*File
	for i := range files {
		files[i], _ = fileOfPages(t, fs, "shared."+string(rune('a'+i)), 8)
	}
	errs := make(chan error, len(files))
	for i, f := range files {
		go func(i int, f *File) {
			out := make([][disk.PageWords]disk.Word, 8)
			in := make([][disk.PageWords]disk.Word, 8)
			for round := 0; round < 50; round++ {
				for p := range out {
					out[p] = pageOf(disk.Word(i<<12 | round<<4 | p))
				}
				if err := f.WritePages(1, out); err != nil {
					errs <- err
					return
				}
				if err := f.ReadPages(1, in); err != nil {
					errs <- err
					return
				}
				if !slices.Equal(in, out) {
					errs <- fmt.Errorf("handle %d round %d: read back another transfer's pages", i, round)
					return
				}
			}
			errs <- nil
		}(i, f)
	}
	for range files {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
