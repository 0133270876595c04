// Package scavenge implements the Scavenger (§3.5): the procedure that
// reconstructs the entire state of the file system from whatever fragmented
// state it has fallen into, using only the absolute information in the page
// labels and leader pages.
//
// "By reading all the labels on the disk, we can check that all the links
// are correct (reconstructing any that prove faulty), obtain full names for
// all existing files, and produce a list of free pages. ... We can then read
// all the directories and verify that each entry points to page 0 of an
// existing file, fixing up the address if necessary and detecting entries
// which point elsewhere. If any file remains unaccounted for by directory
// entries, we can make a new entry for it in the main directory, using its
// leader name."
//
// Two drivers share the repair machinery. Run holds the whole label table
// in memory — the paper's case where "a table with 48 bits per sector" fits
// main storage. RunLowMemory honours the other case ("larger disks require
// this list to be written on a specially reserved section of the disk"): it
// spills the table to free sectors as it sweeps, externally sorts it with a
// bounded in-core window, and streams the sorted groups through the same
// repairs.
//
// The Scavenger is deliberately not privileged: it is a client of the disk
// device, built from the same checked operations as everything else, and it
// only ever *rewrites hints* (links, maps, addresses) — the absolutes it
// found are what it preserves.
package scavenge

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cPagesMoved      = trace.NewCounter("compact.pages.moved")
	cFiles           = trace.NewCounter("scavenge.files")
	cLeadersRepaired = trace.NewCounter("scavenge.leaders.repaired")
	cLinksRepaired   = trace.NewCounter("scavenge.links.repaired")
	cOrphansAdopted  = trace.NewCounter("scavenge.orphans.adopted")
	cPagesFreed      = trace.NewCounter("scavenge.pages.freed")
	cRuns            = trace.NewCounter("scavenge.runs")
)

// Report describes everything one scavenging pass found and repaired.
type Report struct {
	SectorsScanned int
	FilesFound     int
	Directories    int
	FreePages      int
	BadSectors     int
	RetiredPages   int // pages carrying the bad-page label

	DuplicatesFreed   int // two sectors claimed the same absolute name
	HeadlessFreed     int // data pages with no leader anywhere
	IncompleteFiles   int // files truncated at a gap or short interior page
	PagesFreed        int
	LinksRepaired     int
	LeadersRepaired   int
	TailPagesAdded    int // empty pages appended to restore the invariant
	RootRecreated     bool
	DescRecreated     bool
	DirsRepaired      int
	DirEntriesFixed   int // leader-address hints corrected
	DirEntriesRemoved int // entries pointing at nothing
	OrphansAdopted    int

	SpilledEntries int // low-memory mode: table entries written to disk
	SpillSectors   int // low-memory mode: reserved sectors used

	Elapsed time.Duration // simulated time the pass took
}

// String summarizes the report in one line.
func (r *Report) String() string {
	return fmt.Sprintf(
		"scavenge: %d sectors, %d files (%d dirs), %d free, %d bad; repaired %d links, %d leaders, %d entries; adopted %d orphans; %v",
		r.SectorsScanned, r.FilesFound, r.Directories, r.FreePages, r.BadSectors,
		r.LinksRepaired, r.LeadersRepaired, r.DirEntriesFixed+r.DirEntriesRemoved,
		r.OrphansAdopted, r.Elapsed.Round(time.Millisecond))
}

// summary is the per-file record kept after a group has been repaired —
// bounded by the number of files, not sectors, which is what lets the
// low-memory driver discard page entries after use.
type summary struct {
	leaderAddr disk.VDA
	leaderRaw  [disk.LabelWords]disk.Word
	lastPN     disk.Word
	lastAddr   disk.VDA
	lastLen    int
	consec     bool
}

// scavenger carries one pass's working state.
type scavenger struct {
	dev    disk.Device
	report *Report
	free   *file.BitMap // busy = not allocatable
	// files maps each file to its run of the in-memory driver's label
	// table once the sweep has grouped it.
	files    map[disk.FV][]disk.LabelEntry
	order    []disk.FV // deterministic iteration order
	sums     map[disk.FV]summary
	leaders  map[disk.FV]file.Leader
	reserved map[disk.VDA]bool // spill sectors: not allocatable while in use
	rec      *trace.Recorder   // the device's flight recorder; nil = off

	sc  repairSc // reusable op/buffer storage for the repair helpers
	dsk disk.OpScratch
}

// repairSc is the scavenger's scratch for two-operation repair chains.
// Repairs run one at a time, so a single set of buffers serves all of them.
type repairSc struct {
	ops [2]disk.Op
	pat [disk.LabelWords]disk.Word
	lbl [disk.LabelWords]disk.Word
	val [disk.PageWords]disk.Word
}

// onesPage is the all-ones value written into pages the compactor frees;
// Write actions only read the buffer, so one shared copy serves every move.
// zeroPage likewise backs every freshly appended empty tail page.
var (
	onesPage = func() (v [disk.PageWords]disk.Word) {
		for i := range v {
			v[i] = 0xFFFF
		}
		return v
	}()
	zeroPage [disk.PageWords]disk.Word
)

func newScavenger(dev disk.Device) *scavenger {
	return &scavenger{
		dev:      dev,
		report:   &Report{},
		files:    map[disk.FV][]disk.LabelEntry{},
		sums:     map[disk.FV]summary{},
		leaders:  map[disk.FV]file.Leader{},
		reserved: map[disk.VDA]bool{},
		rec:      trace.Of(dev),
	}
}

// phase opens a span covering one pass of the scavenger, named so the trace
// shows where the paper's "about a minute" actually goes.
func (s *scavenger) phase(name string) trace.Span {
	return s.rec.Begin(s.dev.Clock(), trace.KindScavPhase, name, 0, 0)
}

// traceReport publishes the pass's headline numbers as counters.
func (s *scavenger) traceReport(rep *Report) {
	if s.rec == nil {
		return
	}
	s.rec.Add(cRuns, 1)
	s.rec.Add(cFiles, int64(rep.FilesFound))
	s.rec.Add(cLinksRepaired, int64(rep.LinksRepaired))
	s.rec.Add(cLeadersRepaired, int64(rep.LeadersRepaired))
	s.rec.Add(cPagesFreed, int64(rep.PagesFreed))
	s.rec.Add(cOrphansAdopted, int64(rep.OrphansAdopted))
}

// Run scavenges the device with the whole table in memory and returns a
// freshly mounted file system plus the report. It needs no readable
// descriptor, directory or leader to start from — only the labels.
func Run(dev disk.Device) (*file.FS, *Report, error) {
	s := newScavenger(dev)
	watch := sim.Watch(dev.Clock())

	sp := s.phase("sweep")
	err := s.sweepInMemory()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = s.phase("fix-files")
	err = s.fixFiles()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	fs, rep, err := s.finish()
	if err != nil {
		return nil, nil, err
	}
	rep.Elapsed = watch.Elapsed()
	s.traceReport(rep)
	return fs, rep, nil
}

// RunLowMemory scavenges holding at most window table entries in memory,
// spilling the rest to free sectors of the disk being scavenged — the
// paper's large-disk mode. The spilled sectors keep their free labels (only
// their values are borrowed), so a crash mid-scavenge costs nothing.
func RunLowMemory(dev disk.Device, window int) (*file.FS, *Report, error) {
	if window < 64 {
		window = 64
	}
	s := newScavenger(dev)
	watch := sim.Watch(dev.Clock())

	spill := newSpillTable(s, window)
	sp := s.phase("sweep")
	err := s.sweep(spill.add)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = s.phase("spill-sort")
	if err := spill.finishRuns(); err != nil {
		sp.End()
		return nil, nil, err
	}
	// Stream the externally sorted table, one file group at a time, through
	// the same repairs the in-memory driver uses.
	err = spill.mergeGroups(s.fixOneGroup)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	spill.release()
	s.report.FreePages = s.free.CountFree()

	fs, rep, err := s.finish()
	if err != nil {
		return nil, nil, err
	}
	rep.Elapsed = watch.Elapsed()
	s.traceReport(rep)
	return fs, rep, nil
}

// finish runs the shared passes after per-file repair: system structures,
// leader refresh, directories, descriptor flush.
func (s *scavenger) finish() (*file.FS, *Report, error) {
	sp := s.phase("rebuild-system")
	fs, root, err := s.rebuildSystem()
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	// Recompute every leader's hint fields (last page, consecutive flag)
	// from the absolutes: "when it is complete, all hints have been
	// recomputed from absolutes".
	sp = s.phase("refresh-leaders")
	for _, fv := range s.order {
		if _, ok := s.sums[fv]; ok {
			if _, err := s.leaderOf(fv); err != nil {
				sp.End()
				return nil, nil, err
			}
		}
	}
	sp.End()
	sp = s.phase("fix-directories")
	err = s.fixDirectories(fs, root)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if err := fs.Flush(); err != nil {
		return nil, nil, fmt.Errorf("scavenge: writing descriptor: %w", err)
	}
	return fs, s.report, nil
}

// sweepInMemory is the in-memory driver's sweep: every in-use sector goes
// into one flat label table, which is then grouped so that each file's
// pages are one run of it, files in the order the sweep first met them.
func (s *scavenger) sweepInMemory() error {
	table := disk.NewLabelTable(s.dev.Geometry().NSectors())
	err := s.sweep(func(addr disk.VDA, lbl disk.Label) error {
		table.Add(addr, lbl)
		return nil
	})
	if err != nil {
		return err
	}
	for _, g := range table.Group() {
		s.order = append(s.order, g.FV)
		s.files[g.FV] = g.Pages
	}
	return nil
}

// sweep reads every label on the disk (pass 1), rebuilding the allocation
// map and handing each in-use sector to emit in ascending address order.
func (s *scavenger) sweep(emit func(addr disk.VDA, lbl disk.Label) error) error {
	n := s.dev.Geometry().NSectors()
	s.report.SectorsScanned = n
	s.free = file.NewBitMap(n)
	return disk.SweepLabels(s.dev, func(addr disk.VDA, raw [disk.LabelWords]disk.Word, err error) error {
		switch {
		case errors.Is(err, disk.ErrBadSector) || disk.IsCheck(err):
			// Unreadable, or the header does not match the address: an
			// unreliable sector.
			s.report.BadSectors++
			s.free.SetBusy(addr)
		case err != nil:
			return fmt.Errorf("scavenge: sweeping sector %d: %w", addr, err)
		case disk.IsFreeLabel(raw):
			// free: stays free in the map
		case disk.IsBadLabel(raw):
			s.report.RetiredPages++
			s.free.SetBusy(addr)
		default:
			s.free.SetBusy(addr)
			return emit(addr, disk.LabelFromWords(raw))
		}
		return nil
	})
}

// freePage releases a page under the label the sweep read: check that
// label, then write the free pattern over label and value — one
// two-operation ordered chain on the sector.
func (s *scavenger) freePage(p disk.LabelEntry) error {
	if err := s.dsk.Free(s.dev, p.Addr, p.Label); err != nil {
		return err
	}
	s.free.SetFree(p.Addr)
	s.report.PagesFreed++
	return nil
}

// relabel rewrites a sector's label, preserving its value: one operation
// checks the old label and reads the value, the next (a revolution later)
// writes the corrected label and the value back. Chained, so the drive
// schedules the pair once.
func (s *scavenger) relabel(p *disk.LabelEntry, newLbl disk.Label) error {
	s.sc.pat = p.Words()
	s.sc.lbl = newLbl.Words()
	s.sc.ops[0] = disk.Op{
		Addr: p.Addr, Label: disk.Check, LabelData: &s.sc.pat,
		Value: disk.Read, ValueData: &s.sc.val,
	}
	s.sc.ops[1] = disk.Op{
		Addr: p.Addr, Label: disk.Write, LabelData: &s.sc.lbl,
		Value: disk.Write, ValueData: &s.sc.val,
	}
	if err := disk.FirstChainError(disk.DoChainOn(s.dev, s.sc.ops[:], disk.Ordered)); err != nil {
		return err
	}
	p.Label = newLbl
	return nil
}

// allocFresh claims a free sector for a brand-new page, skipping sectors the
// spill table has borrowed.
func (s *scavenger) allocFresh(lbl disk.Label, v *[disk.PageWords]disk.Word) (disk.VDA, error) {
	for i := 0; i < s.free.Len(); i++ {
		a := disk.VDA(i)
		if s.free.Busy(a) || s.reserved[a] {
			continue
		}
		s.free.SetBusy(a)
		err := s.dsk.Allocate(s.dev, a, lbl, v)
		if err == nil {
			return a, nil
		}
		if disk.IsCheck(err) || errors.Is(err, disk.ErrBadSector) {
			continue // stays busy
		}
		return disk.NilVDA, err
	}
	return disk.NilVDA, file.ErrDiskFull
}

// fixFiles (pass 2, in-memory driver) runs fixOneGroup over every file.
func (s *scavenger) fixFiles() error {
	// Iterate a snapshot: dropped files remove themselves from s.order.
	order := append([]disk.FV(nil), s.order...)
	for _, fv := range order {
		if err := s.fixOneGroup(fv, s.files[fv]); err != nil {
			return err
		}
	}
	s.report.FreePages = s.free.CountFree()
	return nil
}

// fixOneGroup enforces one file's structure from the absolutes: contiguous
// pages 0..n, interior pages full, last page partial, links pointing at the
// right neighbours. On success it records the file's summary.
//
// pages is the file's run of the label table, sorted, deduplicated and
// extended in place; a tail page appended past its end lands in a copy.
func (s *scavenger) fixOneGroup(fv disk.FV, pages []disk.LabelEntry) error {
	slices.SortFunc(pages, func(a, b disk.LabelEntry) int {
		return cmp.Or(cmp.Compare(a.PageNum, b.PageNum), cmp.Compare(a.Addr, b.Addr))
	})

	// Duplicates: the same absolute name on two sectors. Keep the first.
	kept := pages[:0]
	for _, p := range pages {
		if len(kept) > 0 && kept[len(kept)-1].PageNum == p.PageNum {
			if err := s.freePage(p); err != nil {
				return err
			}
			s.report.DuplicatesFreed++
			continue
		}
		kept = append(kept, p)
	}
	pages = kept

	// Headless: no page 0 anywhere. Without a leader there is no name to
	// recover the data under; release the pages.
	if pages[0].PageNum != 0 {
		for _, p := range pages {
			if err := s.freePage(p); err != nil {
				return err
			}
		}
		s.report.HeadlessFreed++
		s.drop(fv)
		return nil
	}

	// Contiguous prefix; a gap truncates the file there.
	end := 1
	for end < len(pages) && pages[end].PageNum == pages[end-1].PageNum+1 {
		end++
	}
	// A short interior page also ends the file: bytes beyond it cannot be
	// part of a well-formed file.
	for i := 1; i < end-1; i++ {
		if pages[i].Length < disk.PageBytes {
			end = i + 1
			break
		}
	}
	if end < len(pages) {
		for _, p := range pages[end:] {
			if err := s.freePage(p); err != nil {
				return err
			}
		}
		pages = pages[:end]
		s.report.IncompleteFiles++
	}

	// The leader must be exactly full.
	if pages[0].Length != disk.PageBytes {
		lbl := pages[0].Label
		lbl.Length = disk.PageBytes
		if err := s.relabel(&pages[0], lbl); err != nil {
			return err
		}
		s.report.LeadersRepaired++
	}

	// Restore "the last page is partial": a leader-only file gets an empty
	// page 1; a full last page gets an empty successor.
	if len(pages) == 1 || pages[len(pages)-1].Length >= disk.PageBytes {
		last := pages[len(pages)-1]
		newLbl := disk.Label{
			FID: fv.FID, Version: fv.Version, PageNum: last.PageNum + 1,
			Length: 0, Next: disk.NilVDA, Prev: last.Addr,
		}
		a, err := s.allocFresh(newLbl, &zeroPage)
		if err != nil {
			return fmt.Errorf("scavenge: extending %v: %w", fv, err)
		}
		pages = append(pages, disk.LabelEntry{Label: newLbl, Addr: a})
		s.report.TailPagesAdded++
	}

	// Rebuild the links from the absolutes.
	for i := range pages {
		p := &pages[i]
		next, prev := disk.NilVDA, disk.NilVDA
		if i+1 < len(pages) {
			next = pages[i+1].Addr
		}
		if i > 0 {
			prev = pages[i-1].Addr
		}
		if p.Next != next || p.Prev != prev {
			lbl := p.Label
			lbl.Next = next
			lbl.Prev = prev
			if err := s.relabel(p, lbl); err != nil {
				return err
			}
			s.report.LinksRepaired++
		}
	}

	consec := true
	for i := 1; i < len(pages); i++ {
		if pages[i].Addr != pages[i-1].Addr+1 {
			consec = false
			break
		}
	}
	last := pages[len(pages)-1]
	s.setSummary(fv, summary{
		leaderAddr: pages[0].Addr,
		leaderRaw:  pages[0].Words(),
		lastPN:     last.PageNum,
		lastAddr:   last.Addr,
		lastLen:    int(last.Length),
		consec:     consec,
	})
	if _, inMem := s.files[fv]; inMem {
		s.files[fv] = pages
	}
	s.report.FilesFound++
	if fv.FID.IsDirectory() {
		s.report.Directories++
	}
	return nil
}

// setSummary records a repaired file, maintaining deterministic order for
// the low-memory driver (the in-memory driver set order during the sweep).
func (s *scavenger) setSummary(fv disk.FV, sum summary) {
	if _, ok := s.sums[fv]; !ok {
		if _, inMem := s.files[fv]; !inMem {
			s.order = append(s.order, fv)
		}
	}
	s.sums[fv] = sum
}

// drop removes all record of a file that did not survive repair.
func (s *scavenger) drop(fv disk.FV) {
	delete(s.files, fv)
	delete(s.sums, fv)
	for i, v := range s.order {
		if v == fv {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// leaderOf reads and decodes a file's leader, synthesizing one if the value
// is damaged beyond parsing, and refreshing the hint fields.
func (s *scavenger) leaderOf(fv disk.FV) (file.Leader, error) {
	if ldr, ok := s.leaders[fv]; ok {
		return ldr, nil
	}
	sum, ok := s.sums[fv]
	if !ok {
		return file.Leader{}, fmt.Errorf("scavenge: no summary for %v", fv)
	}
	// The ops live in s.sc: an Op passed through the Device interface
	// escapes, and a literal one would be a heap allocation per leader.
	s.sc.pat = sum.leaderRaw
	s.sc.ops[0] = disk.Op{
		Addr: sum.leaderAddr, Label: disk.Check, LabelData: &s.sc.pat,
		Value: disk.Read, ValueData: &s.sc.val,
	}
	if err := s.dev.Do(&s.sc.ops[0]); err != nil {
		return file.Leader{}, err
	}
	ldr, err := file.DecodeLeader(&s.sc.val)
	damaged := err != nil || ldr.Name == ""
	if damaged {
		ldr = file.Leader{Name: fmt.Sprintf("Rescued!%d.", uint32(fv.FID&^disk.DirFIDBit))}
	}
	if damaged || ldr.LastPN != sum.lastPN || ldr.LastAddr != sum.lastAddr || ldr.MaybeConsecutive != sum.consec {
		ldr.LastPN, ldr.LastAddr, ldr.MaybeConsecutive = sum.lastPN, sum.lastAddr, sum.consec
		if err := ldr.Encode(&s.sc.val); err != nil {
			return file.Leader{}, err
		}
		s.sc.pat = sum.leaderRaw
		s.sc.ops[0] = disk.Op{
			Addr: sum.leaderAddr, Label: disk.Check, LabelData: &s.sc.pat,
			Value: disk.Write, ValueData: &s.sc.val,
		}
		if err := s.dev.Do(&s.sc.ops[0]); err != nil {
			return file.Leader{}, err
		}
		s.report.LeadersRepaired++
	}
	s.leaders[fv] = ldr
	return ldr, nil
}

// findFID returns the surviving file with the given FID (any version).
func (s *scavenger) findFID(fid disk.FID) (disk.FV, summary, bool) {
	for _, fv := range s.order {
		if sum, ok := s.sums[fv]; ok && fv.FID == fid {
			return fv, sum, true
		}
	}
	return disk.FV{}, summary{}, false
}

// openTrusted builds a file handle from a verified summary.
func (s *scavenger) openTrusted(fs *file.FS, fv disk.FV) (*file.File, error) {
	sum := s.sums[fv]
	ldr, err := s.leaderOf(fv)
	if err != nil {
		return nil, err
	}
	return fs.OpenTrusted(file.FN{FV: fv, Leader: sum.leaderAddr}, ldr, sum.lastPN, sum.lastLen), nil
}

// rebuildSystem (pass 3) reconstructs the descriptor and, if necessary, the
// descriptor file and root directory themselves.
func (s *scavenger) rebuildSystem() (*file.FS, *dir.Directory, error) {
	// Serial high-water mark from the absolutes.
	next := uint32(disk.FirstUserFID)
	for _, fv := range s.order {
		if _, ok := s.sums[fv]; !ok {
			continue
		}
		serial := uint32(fv.FID &^ disk.DirFIDBit)
		if serial >= next {
			next = serial + 1
		}
	}

	desc := &file.Descriptor{
		Shape:      s.dev.Geometry(),
		Pack:       s.dev.Pack(),
		NextSerial: next,
		Free:       s.free,
	}
	// The boot page stays reserved even if no boot file exists yet.
	desc.Free.SetBusy(file.BootVDA)

	var descFN file.FN
	if fv, sum, ok := s.findFID(disk.DescriptorFID); ok {
		descFN = file.FN{FV: fv, Leader: sum.leaderAddr}
	}
	fs := file.Adopt(s.dev, desc, descFN)

	if descFN == (file.FN{}) {
		at := file.DescLeaderVDA
		if s.free.Busy(at) {
			at = disk.NilVDA
		}
		f, err := fs.CreateWithFV(disk.FV{FID: disk.DescriptorFID, Version: 1}, "DiskDescriptor.", at)
		if err != nil {
			return nil, nil, fmt.Errorf("scavenge: recreating descriptor file: %w", err)
		}
		fs.SetDescriptorFN(f.FN())
		s.report.DescRecreated = true
	}

	var root *dir.Directory
	if fv, _, ok := s.findFID(disk.SysDirFID); ok {
		f, err := s.openTrusted(fs, fv)
		if err != nil {
			return nil, nil, err
		}
		root = dir.Adopt(fs, f)
	} else {
		at := file.SysDirLeaderVDA
		if s.free.Busy(at) {
			at = disk.NilVDA
		}
		f, err := fs.CreateWithFV(disk.FV{FID: disk.SysDirFID, Version: 1}, "SysDir.", at)
		if err != nil {
			return nil, nil, fmt.Errorf("scavenge: recreating root directory: %w", err)
		}
		root = dir.Adopt(fs, f)
		if err := root.Clear(); err != nil {
			return nil, nil, err
		}
		s.report.RootRecreated = true
	}
	fs.SetRootDir(root.FN())
	return fs, root, nil
}

// fixDirectories (pass 4) verifies every directory entry against the table,
// fixes stale leader-address hints, drops entries pointing at nothing, and
// adopts unreferenced files into the root directory under their leader
// names.
func (s *scavenger) fixDirectories(fs *file.FS, root *dir.Directory) error {
	leaderAddr := func(fv disk.FV) (disk.VDA, bool) {
		sum, ok := s.sums[fv]
		if !ok {
			return 0, false
		}
		return sum.leaderAddr, true
	}

	referenced := map[disk.FV]bool{}
	// Every directory found on the disk is checked, reachable or not: a
	// disconnected directory still holds valid name bindings.
	for _, fv := range s.order {
		if _, ok := s.sums[fv]; !ok || !fv.FID.IsDirectory() {
			continue
		}
		var d *dir.Directory
		if fv.FID == disk.SysDirFID {
			d = root
		} else {
			f, err := s.openTrusted(fs, fv)
			if err != nil {
				return err
			}
			d = dir.Adopt(fs, f)
		}
		entries, err := d.Load()
		damaged := err != nil
		changed := false
		var fixed []dir.Entry
		for _, e := range entries {
			addr, ok := leaderAddr(e.FN.FV)
			if !ok {
				s.report.DirEntriesRemoved++
				changed = true
				continue
			}
			if e.FN.Leader != addr {
				e.FN.Leader = addr
				s.report.DirEntriesFixed++
				changed = true
			}
			referenced[e.FN.FV] = true
			fixed = append(fixed, e)
		}
		if damaged || changed {
			if err := d.Store(fixed); err != nil {
				return fmt.Errorf("scavenge: repairing directory %v: %w", fv, err)
			}
			if damaged {
				s.report.DirsRepaired++
			}
		}
	}

	// Orphans: every surviving file must be reachable by name. This is the
	// sole function of the leader name (§3.4).
	rootEntries, err := root.Load()
	if err != nil {
		return err
	}
	names := map[string]bool{}
	for _, e := range rootEntries {
		names[e.Name] = true
	}
	for _, fv := range s.order {
		sum, ok := s.sums[fv]
		if !ok || referenced[fv] {
			continue
		}
		ldr, err := s.leaderOf(fv)
		if err != nil {
			return err
		}
		name := ldr.Name
		for i := 2; names[name]; i++ {
			name = fmt.Sprintf("%s!%d", ldr.Name, i)
		}
		names[name] = true
		fn := file.FN{FV: fv, Leader: sum.leaderAddr}
		if err := root.Insert(name, fn); err != nil {
			return fmt.Errorf("scavenge: adopting %v as %q: %w", fv, name, err)
		}
		s.report.OrphansAdopted++
	}
	return nil
}
