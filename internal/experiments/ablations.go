package experiments

// Ablations: what each design decision of the paper buys or costs on the
// simulated hardware. Unlike E1–E15, which reproduce claims, these turn a
// mechanism off and measure the difference:
//
//   - A1 label checking on ordinary writes    (§3.3: "at no cost in time")
//   - A2 consecutive allocation               (§3.6: computed-address hints)
//   - A3 per-file hint caching                (§3.6: links cost revolutions)
//   - A4 write-ahead directory journaling     (§3.5: why the paper skipped it)

import (
	"fmt"

	"altoos/internal/dirlog"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/mem"
	"altoos/internal/sim"
	"altoos/internal/trace"
	"altoos/internal/zone"
)

// a1LabelCheck compares an ordinary data write (label checked in passing)
// against a raw value write with no check at all. §3.3 claims the check is
// free: the whole robustness story should cost zero revolutions on the hot
// path.
func a1LabelCheck(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "A1",
		Title: "label check on ordinary writes, ablated",
		Claim: "ordinary writes check the label at no cost in time (§3.3)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	g := r.drive.Geometry()
	rnd := sim.NewRand(1)
	const n = 300
	addrs := make([]disk.VDA, n)
	lbls := make([]disk.Label, n)
	var v [disk.PageWords]disk.Word
	for j := range addrs {
		//altovet:allow wordwidth 1000 + Intn(3000) < 4000 fits a Word
		addrs[j] = disk.VDA(1000 + rnd.Intn(3000))
		lbls[j] = disk.Label{FID: disk.FirstUserFID, Version: 1,
			PageNum: disk.Word(j), Length: disk.PageBytes, Next: disk.NilVDA, Prev: disk.NilVDA}
		if err := disk.Allocate(r.drive, addrs[j], lbls[j], &v); err != nil && !disk.IsCheck(err) {
			return nil, err
		}
	}
	t0 := r.drive.Clock().Now()
	for j := range addrs {
		if err := disk.WriteValue(r.drive, addrs[j], lbls[j], &v); err != nil && !disk.IsCheck(err) {
			return nil, err
		}
	}
	withCheck := r.drive.Clock().Now() - t0

	t1 := r.drive.Clock().Now()
	for j := range addrs {
		// The ablated write: no label action at all.
		//altovet:allow labelcheck the unchecked write is the mechanism this ablation turns off
		if err := r.drive.Do(&disk.Op{Addr: addrs[j], Value: disk.Write, ValueData: &v}); err != nil {
			return nil, err
		}
	}
	noCheck := r.drive.Clock().Now() - t1
	checked := float64(withCheck) / float64(g.RevTime) / n
	raw := float64(noCheck) / float64(g.RevTime) / n
	res.add("ordinary write (label checked)", "%.3f rev", checked)
	res.add("raw value write (no label action)", "%.3f rev", raw)
	res.add("cost of the check", "%.3f rev (paper: none)", checked-raw)
	res.metric("revs/write_checked", checked)
	res.metric("revs/write_unchecked", raw)
	res.metric("revs_check_overhead", checked-raw)
	return res, nil
}

// a2ConsecutiveAllocation grows one file normally (the allocator prefers
// the next sector) and one with the rover scattered before every extension,
// then compares steady-state sequential read cost: what the allocator's
// placement policy is worth.
func a2ConsecutiveAllocation(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "A2",
		Title: "consecutive allocation, ablated",
		Claim: "consecutively allocated files read at full disk speed through computed-address hints (§3.6)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	rnd := sim.NewRand(2)
	const pages = 64
	grow := func(name string, scatter bool) (*file.File, error) {
		f, err := r.fs.Create(name)
		if err != nil {
			return nil, err
		}
		var p [disk.PageWords]disk.Word
		for pn := 1; pn <= pages; pn++ {
			if scatter {
				// Ablate the placement policy: the extension triggered by
				// this write must not find the adjacent sector free, and
				// the fallback scan starts somewhere random. (Marking the
				// map busy is enough — the allocator consults it first;
				// the lie is confined to this run.)
				if a, err := f.PageAddr(f.LastPN()); err == nil && int(a)+1 < r.fs.Descriptor().Free.Len() {
					r.fs.Descriptor().Free.SetBusy(a + 1)
				}
				r.fs.SetRover(disk.VDA(rnd.Intn(r.drive.Geometry().NSectors())))
			}
			if err := f.WritePage(disk.Word(pn), &p, disk.PageBytes); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	// read returns the simulated ms per page of a sequential pass after a
	// warm pass.
	read := func(name string, scatter bool) (float64, error) {
		f, err := grow(name, scatter)
		if err != nil {
			return 0, err
		}
		var buf [disk.PageWords]disk.Word
		lastPN := f.LastPN()
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			if _, err := f.ReadPage(pn, &buf); err != nil {
				return 0, err
			}
		}
		t0 := r.drive.Clock().Now()
		for pn := disk.Word(1); pn <= lastPN; pn++ {
			if _, err := f.ReadPage(pn, &buf); err != nil {
				return 0, err
			}
		}
		return ms(r.drive.Clock().Now()-t0) / float64(lastPN), nil
	}
	seqMS, err := read("seq.dat", false)
	if err != nil {
		return nil, err
	}
	scatMS, err := read("scat.dat", true)
	if err != nil {
		return nil, err
	}
	res.add("sequential read, consecutive allocation", "%.2f ms/page", seqMS)
	res.add("sequential read, scattered allocation", "%.2f ms/page", scatMS)
	res.add("slowdown without the placement policy", "%.2fx", scatMS/seqMS)
	res.metric("ms/page_consecutive", seqMS)
	res.metric("ms/page_scattered_alloc", scatMS)
	res.metric("slowdown_without_policy", scatMS/seqMS)
	return res, nil
}

// a3HintCache reads a file sequentially with the per-handle hint cache
// working, then with hints forgotten before every page: the cost of living
// on links alone.
func a3HintCache(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "A3",
		Title: "per-file hint cache, ablated",
		Claim: "a correct hint reaches a page in one access; without hints every access chases links (§3.6)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	f, err := r.fs.Create("hints.dat")
	if err != nil {
		return nil, err
	}
	var p [disk.PageWords]disk.Word
	const pages = 48
	for pn := 1; pn <= pages; pn++ {
		if err := f.WritePage(disk.Word(pn), &p, disk.PageBytes); err != nil {
			return nil, err
		}
	}
	var buf [disk.PageWords]disk.Word
	h, err := r.fs.Open(f.FN())
	if err != nil {
		return nil, err
	}
	t0 := r.drive.Clock().Now()
	for pn := disk.Word(1); pn <= pages; pn++ {
		if _, err := h.ReadPage(pn, &buf); err != nil {
			return nil, err
		}
	}
	withMS := ms(r.drive.Clock().Now()-t0) / pages

	t1 := r.drive.Clock().Now()
	for pn := disk.Word(1); pn <= pages; pn++ {
		h.ForgetHints() // ablation: every access starts from the leader
		if _, err := h.ReadPage(pn, &buf); err != nil {
			return nil, err
		}
	}
	withoutMS := ms(r.drive.Clock().Now()-t1) / pages
	res.add("sequential read, hints kept", "%.2f ms/page", withMS)
	res.add("sequential read, hints forgotten each page", "%.2f ms/page", withoutMS)
	res.add("slowdown without hints", "%.2fx", withoutMS/withMS)
	res.metric("ms/page_with_hints", withMS)
	res.metric("ms/page_without_hints", withoutMS)
	res.metric("slowdown_without_hints", withoutMS/withMS)
	return res, nil
}

// a4DirectoryJournal measures what the paper's rejected alternative,
// write-ahead journaling of directory changes, costs per insert.
func a4DirectoryJournal(rec *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "A4",
		Title: "directory journaling, the rejected alternative",
		Claim: "journaling directory changes was rejected: \"we do not consider our directories important enough to warrant such attentions\" (§3.5)",
	}
	r, err := newRig(disk.Diablo31(), rec)
	if err != nil {
		return nil, err
	}
	m := mem.New()
	z, err := zone.New(m, 0x4000, 0x4000)
	if err != nil {
		return nil, err
	}
	log, err := dirlog.Open(r.fs, z, m)
	if err != nil {
		return nil, err
	}
	ld := log.Wrap(r.root)

	const n = 20
	fns := make([]file.FN, 2*n)
	for j := range fns {
		f, err := r.fs.Create(fmt.Sprintf("j%03d", j))
		if err != nil {
			return nil, err
		}
		fns[j] = f.FN()
	}

	t0 := r.drive.Clock().Now()
	for j := 0; j < n; j++ {
		if err := r.root.Insert(fmt.Sprintf("plain%03d", j), fns[j]); err != nil {
			return nil, err
		}
	}
	plainMS := ms(r.drive.Clock().Now()-t0) / n

	t1 := r.drive.Clock().Now()
	for j := 0; j < n; j++ {
		if err := ld.Insert(fmt.Sprintf("logged%03d", j), fns[n+j]); err != nil {
			return nil, err
		}
	}
	loggedMS := ms(r.drive.Clock().Now()-t1) / n
	res.add("directory insert, plain", "%.1f ms", plainMS)
	res.add("directory insert, write-ahead journaled", "%.1f ms", loggedMS)
	res.add("journal overhead", "%.3fx", loggedMS/plainMS)
	res.metric("ms/insert_plain", plainMS)
	res.metric("ms/insert_journaled", loggedMS)
	res.metric("journal_overhead_factor", loggedMS/plainMS)
	return res, nil
}
