package experiments

import (
	"fmt"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/scavenge"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// e1RawTransfer — §2: each drive "can transfer 64k words in about one
// second". A 256-page consecutively allocated file is read sequentially and
// the achieved word rate compared with the claim.
func e1RawTransfer(rec *trace.Recorder) (*Result, error) {
	res := &Result{}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	f, err := r.addFile("e1.dat", 256) // 256 pages = 64K words
	if err != nil {
		return nil, err
	}
	elapsed, pages, err := r.readSequential(f)
	if err != nil {
		return nil, err
	}
	words := pages * disk.PageWords
	rate := float64(words) / secs(elapsed)
	for64k := 65536 / rate
	res.add("file size", "%d pages (%d words)", pages, words)
	res.add("sequential read time", "%.2f s simulated", secs(elapsed))
	res.add("achieved rate", "%.0f words/s", rate)
	res.add("time for 64K words at that rate", "%.2f s (paper: about 1 s)", for64k)
	res.metric("sim_seconds_64kwords", for64k)
	res.metric("words_per_sec", rate)
	return res, nil
}

// e2AllocFreeCost — §3.3: the label discipline "costs a disk revolution each
// time a page is allocated or freed", while "on any other write the label is
// checked, at no cost in time". Averages over random sectors.
func e2AllocFreeCost(rec *trace.Recorder) (*Result, error) {
	res := &Result{}
	g := disk.Diablo31()
	d, err := disk.NewDrive(g, 1, nil)
	if err != nil {
		return nil, err
	}
	d.SetRecorder(rec)
	rnd := sim.NewRand(2)
	const n = 400
	addrs := make([]disk.VDA, 0, n)
	seen := map[disk.VDA]bool{}
	for len(addrs) < n {
		a := disk.VDA(rnd.Intn(g.NSectors()))
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	lbl := func(i int) disk.Label {
		return disk.Label{FID: disk.FirstUserFID, Version: 1, PageNum: disk.Word(i),
			Length: disk.PageBytes, Next: disk.NilVDA, Prev: disk.NilVDA}
	}
	var v [disk.PageWords]disk.Word

	measure := func(f func(i int, a disk.VDA) error) (time.Duration, error) {
		start := d.Clock().Now()
		for i, a := range addrs {
			if err := f(i, a); err != nil {
				return 0, err
			}
		}
		return (d.Clock().Now() - start) / n, nil
	}

	alloc, err := measure(func(i int, a disk.VDA) error { return disk.Allocate(d, a, lbl(i), &v) })
	if err != nil {
		return nil, err
	}
	write, err := measure(func(i int, a disk.VDA) error { return disk.WriteValue(d, a, lbl(i), &v) })
	if err != nil {
		return nil, err
	}
	read, err := measure(func(i int, a disk.VDA) error { return disk.ReadValue(d, a, lbl(i), &v) })
	if err != nil {
		return nil, err
	}
	free, err := measure(func(i int, a disk.VDA) error { return disk.Free(d, a, lbl(i)) })
	if err != nil {
		return nil, err
	}

	rev := float64(g.RevTime)
	res.add("ordinary write (check label + write value)", "%.2f rev (%.1f ms)", float64(write)/rev, ms(write))
	res.add("ordinary read (check label + read value)", "%.2f rev (%.1f ms)", float64(read)/rev, ms(read))
	res.add("allocate (check free, then write label)", "%.2f rev (%.1f ms)", float64(alloc)/rev, ms(alloc))
	res.add("free (check label, then write ones)", "%.2f rev (%.1f ms)", float64(free)/rev, ms(free))
	res.add("allocation overhead over ordinary write", "%.2f rev (paper: 1 revolution)", float64(alloc-write)/rev)
	res.add("free overhead over ordinary write", "%.2f rev (paper: 1 revolution)", float64(free-write)/rev)
	res.metric("alloc_overhead_revs", float64(alloc-write)/rev)
	res.metric("free_overhead_revs", float64(free-write)/rev)
	return res, nil
}

// e3Scavenge — §3.5: scavenging "takes about a minute for a 2.5 megabyte
// disk". Populates disks of both geometries to ~60% and scavenges.
func e3Scavenge(rec *trace.Recorder) (*Result, error) {
	res := &Result{}
	for _, g := range []disk.Geometry{disk.Diablo31(), disk.Trident()} {
		r, err := newRig(g, rec)
		if err != nil {
			return nil, err
		}
		// ~60% full: files of 24 data pages each.
		budget := g.NSectors() * 60 / 100
		nfiles := budget / 26
		for i := 0; i < nfiles; i++ {
			if _, err := r.addFile(fmt.Sprintf("f%04d", i), 24); err != nil {
				return nil, err
			}
		}
		_, rep, err := scavenge.Run(r.drive)
		if err != nil {
			return nil, err
		}
		mb := float64(g.Bytes()) / 1e6
		res.add(fmt.Sprintf("%s (%.1f MB, %d files, %d%% full)", g.Name, mb, rep.FilesFound,
			100-100*rep.FreePages/g.NSectors()),
			"%.1f s simulated (paper: ~60 s)", secs(rep.Elapsed))
		res.metric("scavenge_seconds_"+g.Name, secs(rep.Elapsed))
	}
	return res, nil
}

// e4Compaction — §3.5: consecutive layout "typically increases the speed
// with which the files can be read sequentially by an order of magnitude
// over what is possible if the pages have become scattered".
func e4Compaction(rec *trace.Recorder) (*Result, error) {
	res := &Result{}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	// Worst-case natural fragmentation: 12 files grown in lockstep, so each
	// file's consecutive pages are one revolution apart.
	const nfiles, pages = 12, 128
	files := make([]*file.File, nfiles)
	for i := range files {
		f, err := r.fs.Create(fmt.Sprintf("frag%02d", i))
		if err != nil {
			return nil, err
		}
		if err := r.root.Insert(fmt.Sprintf("frag%02d", i), f.FN()); err != nil {
			return nil, err
		}
		files[i] = f
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= pages; pn++ {
		for _, f := range files {
			if err := f.WritePage(disk.Word(pn), &page, disk.PageBytes); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return nil, err
		}
	}

	// Steady-state sequential read: one warm-up pass fills the page-address
	// hints, the measured pass shows pure layout cost — the regime the
	// paper's order-of-magnitude claim describes.
	target, err := r.fs.Open(files[5].FN())
	if err != nil {
		return nil, err
	}
	if _, _, err := r.readSequential(target); err != nil {
		return nil, err
	}
	before, n, err := r.readSequential(target)
	if err != nil {
		return nil, err
	}

	// An aged disk scatters pages across cylinders, not just across a
	// track: move the target file's pages to random free sectors, let the
	// Scavenger rebuild the links, and measure again.
	rnd := sim.NewRand(4)
	fv := files[5].FN().FV
	lastPN := target.LastPN()
	for pn := disk.Word(0); pn <= lastPN; pn++ {
		from, err := target.PageAddr(pn)
		if err != nil {
			return nil, err
		}
		to := disk.VDA(rnd.Intn(r.drive.Geometry().NSectors()))
		if r.fs.Descriptor().Free.Busy(to) {
			continue // only move into genuinely free sectors
		}
		if err := movePage(r.drive, from, to, fv, pn); err != nil {
			return nil, err
		}
		r.fs.Descriptor().Free.SetBusy(to)
		r.fs.Descriptor().Free.SetFree(from)
	}
	fsAged, _, err := scavenge.Run(r.drive)
	if err != nil {
		return nil, err
	}
	agedFN, err := dir.ResolveName(fsAged, "frag05")
	if err != nil {
		return nil, err
	}
	agedFile, err := fsAged.Open(agedFN)
	if err != nil {
		return nil, err
	}
	rAged := &rig{drive: r.drive, fs: fsAged}
	if _, _, err := rAged.readSequential(agedFile); err != nil {
		return nil, err
	}
	aged, _, err := rAged.readSequential(agedFile)
	if err != nil {
		return nil, err
	}

	fs2, crep, err := scavenge.Compact(r.drive)
	if err != nil {
		return nil, err
	}
	fn, err := dir.ResolveName(fs2, "frag05")
	if err != nil {
		return nil, err
	}
	after2, err := fs2.Open(fn)
	if err != nil {
		return nil, err
	}
	r2 := &rig{drive: r.drive, fs: fs2}
	if _, _, err := r2.readSequential(after2); err != nil {
		return nil, err
	}
	after, _, err := r2.readSequential(after2)
	if err != nil {
		return nil, err
	}

	speedup := float64(before) / float64(after)
	agedSpeedup := float64(aged) / float64(after)
	res.add(fmt.Sprintf("scattered (%d-way interleave, %d pages)", nfiles, n),
		"%.2f ms/page", ms(before)/float64(n))
	res.add("scattered (aged disk: random cylinders)", "%.2f ms/page", ms(aged)/float64(n))
	res.add("compacted (consecutive sectors)", "%.2f ms/page", ms(after)/float64(n))
	res.add("speedup, interleaved -> compacted", "%.1fx", speedup)
	res.add("speedup, aged -> compacted", "%.1fx (paper: about 10x)", agedSpeedup)
	res.add("compaction work", "%d pages moved in %.0f s simulated", crep.PagesMoved, secs(crep.Elapsed))
	res.metric("speedup", speedup)
	res.metric("aged_speedup", agedSpeedup)
	res.metric("ms_per_page_scattered", ms(before)/float64(n))
	res.metric("ms_per_page_compacted", ms(after)/float64(n))
	return res, nil
}

// movePage relocates one page to a free sector under the full label
// discipline: read under the old name, allocate the destination under the
// same name, free the source. Links go stale; the Scavenger repairs them.
func movePage(d *disk.Drive, from, to disk.VDA, fv disk.FV, pn disk.Word) error {
	lbl, err := disk.ReadLabel(d, from, fv, pn)
	if err != nil {
		return err
	}
	var v [disk.PageWords]disk.Word
	if err := disk.ReadValue(d, from, lbl, &v); err != nil {
		return err
	}
	if err := disk.Allocate(d, to, lbl, &v); err != nil {
		return err
	}
	return disk.Free(d, from, lbl)
}
