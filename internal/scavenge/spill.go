package scavenge

// The low-memory table: §3.5 says the in-core table needs 48 bits per
// sector, "in fact the case for the machine's standard disks. Larger disks
// require this list to be written on a specially reserved section of the
// disk." This file is that path: table entries are spilled to free sectors
// of the very disk being scavenged, externally sorted with a bounded window,
// and streamed back one file-group at a time.
//
// Spill sectors are borrowed, not allocated: only their *values* are
// written, under a check that the label is the free pattern, so the labels
// remain free throughout. A crash mid-scavenge leaves nothing to clean up,
// and the sectors return to the pool the moment the merge finishes.

import (
	"fmt"

	"altoos/internal/disk"
)

const (
	// entryWords is the on-disk size of one table entry: the seven label
	// words plus the sector address.
	entryWords = disk.LabelWords + 1
	// entriesPerSector is how many entries one borrowed sector holds.
	entriesPerSector = disk.PageWords / entryWords
)

// spillRun is one sorted run on disk.
type spillRun struct {
	sectors []disk.VDA
	count   int
}

// spillTable accumulates sweep entries with a bounded in-core window,
// writing sorted runs to borrowed sectors.
type spillTable struct {
	s      *scavenger
	window int
	buf    []disk.LabelEntry
	runs   []spillRun

	cursor   disk.VDA // free-sector scan position (behind the sweep)
	lastSeen disk.VDA // highest address the sweep has reached
}

func newSpillTable(s *scavenger, window int) *spillTable {
	return &spillTable{s: s, window: window, buf: make([]disk.LabelEntry, 0, window)}
}

// add receives one sweep entry; a full window becomes a sorted run.
func (t *spillTable) add(addr disk.VDA, lbl disk.Label) error {
	t.lastSeen = addr
	t.buf = append(t.buf, disk.LabelEntry{Label: lbl, Addr: addr})
	if len(t.buf) >= t.window {
		return t.flushRun()
	}
	return nil
}

// finishRuns flushes the final partial window. After the sweep, the whole
// disk is fair game for borrowing.
func (t *spillTable) finishRuns() error {
	//altovet:allow wordwidth free.Len() is NSectors, which fits a Word by construction
	t.lastSeen = disk.VDA(t.s.free.Len() - 1)
	if len(t.buf) > 0 {
		return t.flushRun()
	}
	return nil
}

// keyLess orders entries by absolute name, then address.
func keyLess(a, b *disk.LabelEntry) bool {
	if a.FID != b.FID {
		return a.FID < b.FID
	}
	if a.Version != b.Version {
		return a.Version < b.Version
	}
	if a.PageNum != b.PageNum {
		return a.PageNum < b.PageNum
	}
	return a.Addr < b.Addr
}

// flushRun sorts the window and writes it to borrowed sectors.
func (t *spillTable) flushRun() error {
	// Insertion-free sort via sort.Slice would be fine; keep it simple and
	// deterministic with a straightforward in-place sort.
	buf := t.buf
	sortEntries(buf)
	run := spillRun{count: len(buf)}
	for off := 0; off < len(buf); off += entriesPerSector {
		end := off + entriesPerSector
		if end > len(buf) {
			end = len(buf)
		}
		sector, err := t.borrow()
		if err != nil {
			return err
		}
		var v [disk.PageWords]disk.Word
		for i, e := range buf[off:end] {
			base := i * entryWords
			raw := e.Words()
			copy(v[base:base+disk.LabelWords], raw[:])
			v[base+disk.LabelWords] = disk.Word(e.Addr)
		}
		pat := disk.FreeLabelWords()
		if err := t.s.dev.Do(&disk.Op{
			Addr: sector, Label: disk.Check, LabelData: &pat,
			Value: disk.Write, ValueData: &v,
		}); err != nil {
			return fmt.Errorf("scavenge: spilling to sector %d: %w", sector, err)
		}
		run.sectors = append(run.sectors, sector)
	}
	t.runs = append(t.runs, run)
	t.s.report.SpilledEntries += len(buf)
	t.buf = t.buf[:0]
	return nil
}

// sortEntries sorts a window by key.
func sortEntries(buf []disk.LabelEntry) {
	// Shell sort: no allocation, fine for window-sized slices.
	for gap := len(buf) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(buf); i++ {
			for j := i; j >= gap && keyLess(&buf[j], &buf[j-gap]); j -= gap {
				buf[j], buf[j-gap] = buf[j-gap], buf[j]
			}
		}
	}
}

// borrow finds a free sector behind the sweep front and reserves it for the
// table. When the sweep has not yet passed any free sector — a compactly
// allocated disk — it reads ahead: a sector's own label says whether it is
// free, no other bookkeeping required, which is the whole point of
// self-identifying pages.
func (t *spillTable) borrow() (disk.VDA, error) {
	for ; t.cursor <= t.lastSeen; t.cursor++ {
		a := t.cursor
		if t.s.free.Busy(a) || t.s.reserved[a] {
			continue
		}
		t.s.reserved[a] = true
		t.s.report.SpillSectors++
		t.cursor++
		return a, nil
	}
	// Read ahead of the sweep.
	n := disk.VDA(t.s.free.Len())
	for a := t.lastSeen + 1; a < n; a++ {
		if t.s.reserved[a] {
			continue
		}
		raw, err := disk.ReadAnyLabel(t.s.dev, a)
		if err != nil {
			continue // bad sector: the sweep will classify it
		}
		if !disk.IsFreeLabel(raw) {
			continue
		}
		t.s.reserved[a] = true
		t.s.report.SpillSectors++
		return a, nil
	}
	return disk.NilVDA, fmt.Errorf("scavenge: no free sectors for the spill table (disk too full)")
}

// release returns every borrowed sector to the pool. Their labels were
// never touched, so there is nothing to write back.
func (t *spillTable) release() {
	for a := range t.s.reserved {
		delete(t.s.reserved, a)
	}
}

// runReader streams one run's entries back in order.
type runReader struct {
	t       *spillTable
	run     spillRun
	sector  int // index into run.sectors
	buf     [disk.PageWords]disk.Word
	inBuf   int // entries decoded into buf's sector
	bufIdx  int
	served  int
	current disk.LabelEntry
	valid   bool
}

func (r *runReader) next() error {
	r.valid = false
	if r.served >= r.run.count {
		return nil
	}
	if r.bufIdx >= r.inBuf {
		// Load the next sector of the run.
		addr := r.run.sectors[r.sector]
		r.sector++
		pat := disk.FreeLabelWords()
		if err := r.t.s.dev.Do(&disk.Op{
			Addr: addr, Label: disk.Check, LabelData: &pat,
			Value: disk.Read, ValueData: &r.buf,
		}); err != nil {
			return fmt.Errorf("scavenge: reading spill sector %d: %w", addr, err)
		}
		remaining := r.run.count - r.served
		r.inBuf = entriesPerSector
		if remaining < r.inBuf {
			r.inBuf = remaining
		}
		r.bufIdx = 0
	}
	base := r.bufIdx * entryWords
	var raw [disk.LabelWords]disk.Word
	copy(raw[:], r.buf[base:base+disk.LabelWords])
	r.current = disk.LabelEntry{
		Label: disk.LabelFromWords(raw),
		Addr:  disk.VDA(r.buf[base+disk.LabelWords]),
	}
	r.bufIdx++
	r.served++
	r.valid = true
	return nil
}

// mergeGroups merges every run and hands complete file groups to consume,
// holding at most one sector buffer per run plus one group in memory. The
// group's slice is reused for the next group once consume returns.
func (t *spillTable) mergeGroups(consume func(fv disk.FV, pages []disk.LabelEntry) error) error {
	readers := make([]*runReader, len(t.runs))
	for i, run := range t.runs {
		readers[i] = &runReader{t: t, run: run}
		if err := readers[i].next(); err != nil {
			return err
		}
	}
	var group []disk.LabelEntry
	var groupFV disk.FV
	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		g := group
		group = group[:0]
		return consume(groupFV, g)
	}
	for {
		// Smallest current entry across runs (run count is small: the
		// window divides the table into few runs).
		var min *runReader
		for _, r := range readers {
			if !r.valid {
				continue
			}
			if min == nil || keyLess(&r.current, &min.current) {
				min = r
			}
		}
		if min == nil {
			return flush()
		}
		e := min.current
		if err := min.next(); err != nil {
			return err
		}
		if len(group) > 0 && e.FV() != groupFV {
			if err := flush(); err != nil {
				return err
			}
		}
		groupFV = e.FV()
		group = append(group, e)
	}
}
