package scavenge

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/sim"
)

// CompactReport describes a compaction run.
type CompactReport struct {
	FilesLaidOut  int
	PagesMoved    int
	PagesAlready  int // pages that were already in place
	Elapsed       time.Duration
	ScavengeAfter *Report // the rebuild pass that refreshed all hints
}

// String summarizes the report.
func (r *CompactReport) String() string {
	return fmt.Sprintf("compact: %d files laid out, %d pages moved (%d already placed), %v",
		r.FilesLaidOut, r.PagesMoved, r.PagesAlready, r.Elapsed.Round(time.Millisecond))
}

// Compact is the "more elaborate scavenger that does an in-place permutation
// of the file pages on the disk so that the pages of each file are in
// consecutive sectors. This arrangement typically increases the speed with
// which the files can be read sequentially by an order of magnitude" (§3.5).
//
// The algorithm moves pages one at a time, never holding more than one page
// value in memory, and keeps every label correct at every step (a moved page
// is allocated at its destination under its absolute name before the source
// is freed). Links go stale during the permutation — they are hints — and a
// final scavenging pass reconstructs them, so a crash mid-compaction costs
// nothing but time.
func Compact(dev disk.Device) (*file.FS, *CompactReport, error) {
	rep := &CompactReport{}
	watch := sim.Watch(dev.Clock())

	// Learn the current layout from the labels.
	s := newScavenger(dev)
	sp := s.phase("compact-sweep")
	err := s.sweepInMemory()
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	// Plan the target layout. Fixed sectors keep their occupants: the boot
	// page, the root leader and the descriptor leader have standard
	// addresses that must not move. Every file is then laid out
	// consecutively (leader first) in FID order, system files first, in the
	// lowest available run of sectors.
	fvs := slices.Clone(s.order)
	slices.SortFunc(fvs, compareFV)
	n := s.dev.Geometry().NSectors()
	cur := make([]*disk.LabelEntry, n) // live page by current address
	for _, fv := range fvs {
		// Page order. The sort moves the table's entries, so it comes
		// before anything takes their addresses.
		pages := s.files[fv]
		slices.SortFunc(pages, func(a, b disk.LabelEntry) int { return cmp.Compare(a.PageNum, b.PageNum) })
		for i := range pages {
			cur[pages[i].Addr] = &pages[i]
		}
	}
	target := make([]*disk.LabelEntry, n) // target[a] = page that must end up at a
	taken := make([]bool, n)
	// Unusable sectors never receive pages.
	bad := make([]bool, n)
	for i := 0; i < n; i++ {
		if s.free.Busy(disk.VDA(i)) && cur[i] == nil {
			bad[i], taken[i] = true, true // bad or retired sector
		}
	}

	// Pin the standard addresses.
	pin := func(a disk.VDA) {
		if p := cur[a]; p != nil && standardAddress(p) == a {
			target[a] = p
			taken[a] = true
		} else {
			taken[a] = true // reserve even if empty (boot page slot)
		}
	}
	pin(file.BootVDA)
	pin(file.SysDirLeaderVDA)
	pin(file.DescLeaderVDA)

	cursor := 0
	for _, fv := range fvs {
		pages := s.files[fv]
		rep.FilesLaidOut++
		for i := range pages {
			p := &pages[i]
			if std := standardAddress(p); std != disk.NilVDA {
				continue // already pinned
			}
			// Find the next run start; single pages just take the next slot.
			for cursor < n && taken[cursor] {
				cursor++
			}
			if cursor >= n {
				return nil, nil, fmt.Errorf("scavenge: compaction ran out of sectors")
			}
			target[cursor] = p
			taken[cursor] = true
			cursor++
		}
	}

	// Execute the permutation. For each destination in order: if the right
	// page is already there, done; otherwise evacuate whatever sits there to
	// a free sector, then move the wanted page in.
	freeNow := func() disk.VDA {
		for i := n - 1; i >= 0; i-- { // evacuate to the far end
			a := disk.VDA(i)
			if cur[a] != nil {
				continue
			}
			if target[a] != nil && target[a].Addr == a {
				continue
			}
			if bad[a] {
				continue
			}
			if a == file.BootVDA || a == file.SysDirLeaderVDA || a == file.DescLeaderVDA {
				continue
			}
			return a
		}
		return disk.NilVDA
	}
	// One page move is a five-operation ordered chain: read the value under
	// the old label, check the destination carries the free label (so a
	// squatter becomes a check error, never an overwrite), write the page
	// there under its absolute name, then check and free the source. A
	// failed check anywhere stops the chain at that sector, exactly as the
	// step-by-step sequence would.
	var mv struct {
		ops    [5]disk.Op
		srcPat [disk.LabelWords]disk.Word
		dstPat [disk.LabelWords]disk.Word
		chkPat [disk.LabelWords]disk.Word
		newLbl [disk.LabelWords]disk.Word
		fre    [disk.LabelWords]disk.Word
		val    [disk.PageWords]disk.Word
	}
	move := func(p *disk.LabelEntry, to disk.VDA) error {
		// The label moves as it is: its links go stale, but they are hints.
		mv.srcPat = p.Words()
		mv.dstPat = disk.FreeLabelWords()
		mv.chkPat = mv.srcPat
		mv.newLbl = mv.srcPat
		mv.fre = disk.FreeLabelWords()
		mv.ops[0] = disk.Op{Addr: p.Addr, Label: disk.Check, LabelData: &mv.srcPat,
			Value: disk.Read, ValueData: &mv.val}
		mv.ops[1] = disk.Op{Addr: to, Label: disk.Check, LabelData: &mv.dstPat}
		mv.ops[2] = disk.Op{Addr: to, Label: disk.Write, LabelData: &mv.newLbl,
			Value: disk.Write, ValueData: &mv.val}
		mv.ops[3] = disk.Op{Addr: p.Addr, Label: disk.Check, LabelData: &mv.chkPat}
		mv.ops[4] = disk.Op{Addr: p.Addr, Label: disk.Write, LabelData: &mv.fre,
			Value: disk.Write, ValueData: &onesPage}
		if err := disk.FirstChainError(disk.DoChainOn(s.dev, mv.ops[:], disk.Ordered)); err != nil {
			return err
		}
		s.free.SetFree(p.Addr)
		s.report.PagesFreed++
		cur[p.Addr] = nil
		s.free.SetBusy(to)
		p.Addr = to
		cur[to] = p
		rep.PagesMoved++
		return nil
	}

	sp = s.phase("compact-permute")
	for i := 0; i < n; i++ {
		want := target[i]
		if want == nil {
			continue
		}
		dst := disk.VDA(i)
		if want.Addr == dst {
			rep.PagesAlready++
			continue
		}
		if squatter := cur[dst]; squatter != nil {
			spare := freeNow()
			if spare == disk.NilVDA {
				sp.End()
				return nil, nil, fmt.Errorf("scavenge: no spare sector during compaction")
			}
			if err := move(squatter, spare); err != nil {
				sp.End()
				return nil, nil, fmt.Errorf("scavenge: evacuating %d: %w", dst, err)
			}
		}
		if err := move(want, dst); err != nil {
			sp.End()
			return nil, nil, fmt.Errorf("scavenge: moving page to %d: %w", dst, err)
		}
	}
	sp.End()
	if s.rec != nil {
		s.rec.Add(cPagesMoved, int64(rep.PagesMoved))
	}

	// Links, leaders, the allocation map and directory address hints are all
	// stale now. They are hints; the Scavenger rebuilds every one of them
	// from the absolutes.
	fs, after, err := Run(dev)
	if err != nil {
		return nil, nil, fmt.Errorf("scavenge: post-compaction rebuild: %w", err)
	}
	rep.ScavengeAfter = after
	rep.Elapsed = watch.Elapsed()
	return fs, rep, nil
}

// standardAddress returns the fixed address a page must occupy, or NilVDA.
func standardAddress(p *disk.LabelEntry) disk.VDA {
	switch {
	case p.FID == disk.SysDirFID && p.PageNum == 0:
		return file.SysDirLeaderVDA
	case p.FID == disk.DescriptorFID && p.PageNum == 0:
		return file.DescLeaderVDA
	case p.FID == disk.BootFID && p.PageNum == 1:
		return file.BootVDA
	}
	return disk.NilVDA
}

// compareFV orders files for layout: system files first, then by serial.
func compareFV(a, b disk.FV) int {
	return cmp.Or(cmp.Compare(layoutRank(a.FID), layoutRank(b.FID)),
		cmp.Compare(a.FID, b.FID), cmp.Compare(a.Version, b.Version))
}

func layoutRank(f disk.FID) int {
	switch f {
	case disk.DescriptorFID:
		return 0
	case disk.SysDirFID:
		return 1
	case disk.BootFID:
		return 2
	}
	return 3
}
