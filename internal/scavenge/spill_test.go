package scavenge

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/fsck"
	"altoos/internal/sim"
)

func TestLowMemoryScavengeMatchesInMemory(t *testing.T) {
	// The same damaged disk scavenged both ways must produce equivalent
	// results: same files reachable, same contents.
	mk := func() *disk.Drive {
		d, fs, root, files := build(t, 10, 3)
		_ = fs
		// Damage: orphan one file, break one link, leave a stale entry.
		if err := root.Remove("file-3"); err != nil {
			t.Fatal(err)
		}
		addr, err := files[5].PageAddr(2)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := d.PeekLabel(addr)
		lbl := disk.LabelFromWords(raw)
		lbl.Next = 4009
		d.ZapLabel(addr, lbl.Words())
		return d
	}

	dMem := mk()
	_, repMem, err := Run(dMem)
	if err != nil {
		t.Fatal(err)
	}

	dLow := mk()
	fsLow, repLow, err := RunLowMemory(dLow, 64)
	if err != nil {
		t.Fatal(err)
	}
	if repLow.SpilledEntries == 0 || repLow.SpillSectors == 0 {
		t.Fatalf("low-memory run did not spill: %+v", repLow)
	}
	if repLow.FilesFound != repMem.FilesFound {
		t.Errorf("files found: low %d vs mem %d", repLow.FilesFound, repMem.FilesFound)
	}
	if repLow.OrphansAdopted != repMem.OrphansAdopted {
		t.Errorf("orphans: low %d vs mem %d", repLow.OrphansAdopted, repMem.OrphansAdopted)
	}
	if repLow.LinksRepaired != repMem.LinksRepaired {
		t.Errorf("links: low %d vs mem %d", repLow.LinksRepaired, repMem.LinksRepaired)
	}
	verify(t, fsLow, 10, 3)
}

func TestLowMemoryScavengeTinyWindow(t *testing.T) {
	// A pathologically small window forces many runs and a wide merge.
	d, _, _, _ := build(t, 12, 4)
	fs2, rep, err := RunLowMemory(d, 1) // clamped to the 64 minimum
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpilledEntries < 60 {
		t.Errorf("expected heavy spilling, got %d entries", rep.SpilledEntries)
	}
	verify(t, fs2, 12, 4)
}

func TestLowMemorySpillSectorsComeBackFree(t *testing.T) {
	d, _, _, _ := build(t, 5, 2)
	fs2, rep, err := RunLowMemory(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpillSectors == 0 {
		t.Fatal("no sectors borrowed")
	}
	// Free counts must match an in-memory scavenge of an identical disk:
	// nothing borrowed stays reserved.
	d2, _, _, _ := build(t, 5, 2)
	fs3, _, err := Run(d2)
	if err != nil {
		t.Fatal(err)
	}
	if fs2.FreeCount() != fs3.FreeCount() {
		t.Errorf("free pages differ: low %d vs mem %d", fs2.FreeCount(), fs3.FreeCount())
	}
}

func TestLowMemoryScavengeIdempotent(t *testing.T) {
	d, _, _, _ := build(t, 6, 3)
	if _, _, err := RunLowMemory(d, 64); err != nil {
		t.Fatal(err)
	}
	_, rep2, err := RunLowMemory(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LinksRepaired != 0 || rep2.LeadersRepaired != 0 || rep2.OrphansAdopted != 0 {
		t.Errorf("second low-memory scavenge not idempotent: %+v", rep2)
	}
}

func TestLowMemoryDestroyedRoot(t *testing.T) {
	d, _, root, _ := build(t, 4, 2)
	lastPN, _ := root.File().LastPage()
	for pn := disk.Word(0); pn <= lastPN; pn++ {
		addr, err := root.File().PageAddr(pn)
		if err != nil {
			t.Fatal(err)
		}
		d.ZapLabel(addr, disk.FreeLabelWords())
	}
	fs2, rep, err := RunLowMemory(d, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RootRecreated || rep.OrphansAdopted < 4 {
		t.Errorf("root recovery failed under low memory: %+v", rep)
	}
	verify(t, fs2, 4, 2)
}

func TestSpillSortAndMergeProperty(t *testing.T) {
	// Random tables must come back in exact key order with all entries.
	for seed := uint64(1); seed <= 4; seed++ {
		r := sim.NewRand(seed)
		d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newScavenger(d)
		s.free = file.NewBitMap(d.Geometry().NSectors())
		// Mark a band busy so borrow has to hunt.
		for i := 0; i < 100; i++ {
			s.free.SetBusy(disk.VDA(r.Intn(400)))
		}
		spill := newSpillTable(s, 64)
		n := 300 + r.Intn(300)
		want := 0
		for i := 0; i < n; i++ {
			lbl := disk.Label{FID: disk.FID(1 + r.Intn(20)), Version: 1, PageNum: disk.Word(r.Intn(50))}
			spill.lastSeen = disk.VDA(d.Geometry().NSectors() - 1)
			if err := spill.add(disk.VDA(1000+i), lbl); err != nil {
				t.Fatal(err)
			}
			want++
		}
		if err := spill.finishRuns(); err != nil {
			t.Fatal(err)
		}
		got := 0
		var prev *disk.LabelEntry
		err = spill.mergeGroups(func(fv disk.FV, pages []disk.LabelEntry) error {
			for _, p := range pages {
				if p.FV() != fv {
					return fmt.Errorf("group mixes files")
				}
				if prev != nil && keyLess(&p, prev) {
					return fmt.Errorf("out of order: %v after %v", p, prev)
				}
				prev = &p
				got++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got != want {
			t.Fatalf("seed %d: merged %d entries, want %d", seed, got, want)
		}
	}
}

func TestBorrowFailsOnFullDisk(t *testing.T) {
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newScavenger(d)
	s.free = file.NewBitMap(d.Geometry().NSectors())
	for i := 0; i < s.free.Len(); i++ {
		s.free.SetBusy(disk.VDA(i))
	}
	spill := newSpillTable(s, 64)
	spill.lastSeen = disk.VDA(s.free.Len() - 1)
	if _, err := spill.borrow(); err == nil {
		t.Fatal("borrow succeeded on a full disk")
	}
	_ = dir.Walk // keep dir import for build()'s helpers in this package
}

// TestLowMemoryMatchesInMemoryOnAgedPacks runs both drivers over the same
// damaged packs: eight seeded aged packs with pack-churn's damage (link
// words flipped, free labels turned to garbage), one that also holds a
// duplicated (file, page) name, and one where two files next to each other
// in the label table both need a new tail page. The two drivers share
// fixOneGroup, so this guards its in-place deduplication and the table's
// capped runs as much as the spill path. Each pack must come out with the
// same listing, the same bytes in every file, the same report apart from
// the spill fields and the time, and no violation fsck can find.
func TestLowMemoryMatchesInMemoryOnAgedPacks(t *testing.T) {
	type pack struct {
		name  string
		image []byte
		hurt  func(*disk.Drive)
		bites func(Report) bool // the damage made the Scavenger repair what it targets
	}
	var packs []pack
	for seed := uint64(1); seed <= 8; seed++ {
		packs = append(packs, pack{fmt.Sprintf("seed-%d", seed), agedPack(t, seed, 1),
			func(d *disk.Drive) { damage(d, sim.NewRand(seed+100), 3) },
			func(r Report) bool { return r.LinksRepaired > 0 && r.PagesFreed > 0 }})
	}
	packs = append(packs,
		pack{"duplicate", agedPack(t, 9, 1), duplicatePage,
			func(r Report) bool { return r.DuplicatesFreed == 1 }},
		pack{"adjacent-tails", agedPack(t, 10, 1), func(d *disk.Drive) { fillAdjacentTails(t, d) },
			func(r Report) bool { return r.TailPagesAdded == 2 }},
	)
	for _, p := range packs {
		t.Run(p.name, func(t *testing.T) {
			scavenged := func(run func(disk.Device) (*file.FS, *Report, error)) (string, Report) {
				d := loadPack(t, p.image)
				p.hurt(d)
				fs, rep, err := run(d)
				if err != nil {
					t.Fatal(err)
				}
				chk, err := fsck.Check(d)
				if err != nil {
					t.Fatal(err)
				}
				if !chk.OK() {
					t.Fatalf("fsck after scavenge: %v", chk.Strings())
				}
				return packState(t, fs), *rep
			}
			memState, memRep := scavenged(Run)
			lowState, lowRep := scavenged(func(d disk.Device) (*file.FS, *Report, error) { return RunLowMemory(d, 64) })
			if lowRep.SpilledEntries == 0 {
				t.Errorf("RunLowMemory did not spill: %+v", lowRep)
			}
			for _, r := range []*Report{&memRep, &lowRep} {
				r.SpilledEntries, r.SpillSectors, r.Elapsed = 0, 0, 0
			}
			if memState != lowState {
				t.Errorf("packs differ:\nRun:\n%s\nRunLowMemory:\n%s", memState, lowState)
			}
			if memRep != lowRep {
				t.Errorf("reports differ:\nRun:          %+v\nRunLowMemory: %+v", memRep, lowRep)
			}
			if !p.bites(memRep) {
				t.Errorf("the damage did not take: %+v", memRep)
			}
		})
	}
}

// packState renders what a user sees on a mounted pack: the root listing,
// sorted by name, and a digest of every listed ordinary file's bytes.
func packState(t *testing.T, fs *file.FS) string {
	t.Helper()
	root, err := dir.OpenRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := root.Load()
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(entries, func(a, b dir.Entry) int { return cmp.Compare(a.Name, b.Name) })
	var out strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&out, "%s %v", e.Name, e.FN.FV)
		if !e.FN.FV.FID.IsDirectory() && e.FN.FV.FID >= disk.FirstUserFID {
			f, err := fs.Open(e.FN)
			if err != nil {
				t.Fatalf("open %s: %v", e.Name, err)
			}
			h := sha256.New()
			last, _ := f.LastPage()
			var buf [disk.PageWords]disk.Word
			for pn := disk.Word(1); pn <= last; pn++ {
				n, err := f.ReadPage(pn, &buf)
				if err != nil {
					t.Fatalf("%s page %d: %v", e.Name, pn, err)
				}
				for _, w := range buf[:(n+1)/2] {
					h.Write([]byte{byte(w >> 8), byte(w)})
				}
				fmt.Fprintf(h, "|%d|", n)
			}
			fmt.Fprintf(&out, " %x", h.Sum(nil)[:8])
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// duplicatePage copies the label of one file's data page onto a free sector,
// so two sectors claim the same (file, page) name.
func duplicatePage(d *disk.Drive) {
	var src, dst disk.VDA = disk.NilVDA, disk.NilVDA
	for a := disk.VDA(0); int(a) < d.Geometry().NSectors(); a++ {
		w, _ := d.PeekLabel(a)
		l := disk.LabelFromWords(w)
		switch {
		case src == disk.NilVDA && disk.InUse(w) && l.FID >= disk.FirstUserFID && !l.FID.IsDirectory() && l.PageNum == 2:
			src = a
		case src != disk.NilVDA && disk.IsFreeLabel(w):
			dst = a
		}
		if dst != disk.NilVDA {
			break
		}
	}
	w, _ := d.PeekLabel(src)
	d.ZapLabel(dst, w)
}

// fillAdjacentTails finds two ordinary files whose runs are next to each
// other in the Scavenger's label table (the table keeps files in the order
// the sweep first meets them) and marks both files' last pages full, so the
// Scavenger must append an empty tail page to each.
func fillAdjacentTails(t *testing.T, d *disk.Drive) {
	t.Helper()
	var order []disk.FV
	seen := map[disk.FV]bool{}
	tail := map[disk.FV]disk.VDA{}
	for a := disk.VDA(0); int(a) < d.Geometry().NSectors(); a++ {
		w, _ := d.PeekLabel(a)
		if !disk.InUse(w) {
			continue
		}
		l := disk.LabelFromWords(w)
		if !seen[l.FV()] {
			seen[l.FV()] = true
			order = append(order, l.FV())
		}
		if l.Next == disk.NilVDA {
			tail[l.FV()] = a
		}
	}
	ordinary := func(fv disk.FV) bool { return fv.FID >= disk.FirstUserFID && !fv.FID.IsDirectory() }
	for i := 1; i < len(order); i++ {
		if ordinary(order[i-1]) && ordinary(order[i]) {
			for _, fv := range order[i-1 : i+1] {
				w, _ := d.PeekLabel(tail[fv])
				l := disk.LabelFromWords(w)
				l.Length = disk.PageBytes
				d.ZapLabel(tail[fv], l.Words())
			}
			return
		}
	}
	t.Fatal("no two ordinary files are adjacent in the label table")
}
