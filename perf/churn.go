package main

// pack-churn: one Alto, no ether, no fleet. A full Diablo31 pack holds a
// couple of hundred aged files, and a seeded mix of creates, reads, partial
// overwrites, truncations and deletes runs against it; every few hundred ops
// the pack is damaged, scavenged and checked, and now and then compacted.
// The storage layers do all the work, so a fleet, ether or pup change should
// move nothing here.

import (
	"errors"
	"fmt"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/fsck"
	"altoos/internal/mem"
	"altoos/internal/scavenge"
	"altoos/internal/sim"
	"altoos/internal/stream"
	"altoos/internal/zone"
)

var churnWorkload = &workload{
	name:    "pack-churn",
	workers: 1,
	setup:   setupChurn,
}

const (
	churnFiles         = 200 // steady-state population
	churnMaxPages      = 12
	churnMaxRun        = 8 // pages per partial overwrite
	churnScavengeEvery = 500
	churnCompactEvery  = 2000
	churnDamage        = 2 // labels of each kind damaged before a scavenge
)

// churnFile is the model of one file: the content key of each page and the
// byte count of the last one.
type churnFile struct {
	name    string
	keys    []uint64
	lastLen int
}

// pageWords fills a page with the content derived from key.
func pageWords(key uint64, page *[disk.PageWords]disk.Word) {
	x := key
	for i := range page {
		x = x*6364136223846793005 + 1442695040888963407
		page[i] = disk.Word(x >> 48)
	}
}

// churnRig is the machine under churn and the model of its files.
type churnRig struct {
	e    *env
	m    *machine
	t    *mtrace // nil during set-up
	drv  *disk.Drive
	fs   *file.FS
	root *dir.Directory
	mem  *mem.Memory
	zone *zone.MemZone
	rnd  *sim.Rand

	files  []*churnFile // live files; picks index this slice
	serial int
	pages  [churnMaxPages][disk.PageWords]disk.Word
	want   [disk.PageWords]disk.Word
}

func setupChurn(e *env) (func() error, error) {
	ops := 20000
	if e.smoke {
		ops = 600
	}
	r := &churnRig{e: e, rnd: sim.NewRand(mix(e.seed, 1)), mem: mem.New()}
	r.m = e.newMachine("alto", sim.NewClock())
	var err error
	if r.drv, err = disk.NewDrive(disk.Diablo31(), 1, r.m.clock); err != nil {
		return nil, err
	}
	r.drv.SetRecorder(r.m.rec)
	if r.fs, err = file.Format(r.drv); err != nil {
		return nil, err
	}
	if r.root, err = dir.InitRoot(r.fs); err != nil {
		return nil, err
	}
	if r.zone, err = zone.New(r.mem, 0x1000, 0x1000); err != nil {
		return nil, err
	}

	// Age the pack: more files than the steady state, then deletions and
	// truncations scattered through them, so free space is fragmented.
	for i := 0; i < churnFiles*6/5; i++ {
		if err := r.create(); err != nil {
			return nil, fmt.Errorf("age: %w", err)
		}
	}
	for i := 0; i < churnFiles/5; i++ {
		if err := r.remove(r.pick()); err != nil {
			return nil, fmt.Errorf("age: %w", err)
		}
		if f := r.pickLong(); f != nil {
			if err := r.truncate(f); err != nil {
				return nil, fmt.Errorf("age: %w", err)
			}
		}
	}
	e.ops.init(ops)

	timed := func() error {
		r.t = r.m.tr
		for id := 0; id < ops; id++ {
			r.t.setOp(id)
			start := r.m.clock.Now()
			ok, err := r.op()
			if err != nil {
				return fmt.Errorf("op %d: %w", id, err)
			}
			e.ops.done(id, r.m.clock.Now()-start, ok)
			if (id+1)%churnScavengeEvery == 0 {
				// The op that triggered the check fails if it finds damage.
				found := e.violations
				err := r.maintain((id+1)%churnCompactEvery == 0)
				if err != nil || e.violations > found {
					e.ops.fail(id)
				}
				if err != nil {
					return fmt.Errorf("after op %d: %w", id, err)
				}
			}
		}
		r.t.setOp(-1)
		return nil
	}
	return timed, nil
}

// op runs one seeded operation and reports whether what it read back
// matched the model. Creates outnumber deletes while the population is
// below churnFiles and deletes outnumber creates above it, so the
// population — and with it the root directory every lookup reads — stays
// near churnFiles for every seed.
func (r *churnRig) op() (bool, error) {
	create := 20
	if len(r.files) >= churnFiles {
		create = 10
	}
	switch x := r.rnd.Intn(100); {
	case x < create:
		return true, r.create()
	case x < 30:
		return true, r.remove(r.pick())
	case x < 70:
		return r.read(r.pick())
	case x < 90:
		if f := r.pickLong(); f != nil {
			return true, r.overwrite(f)
		}
		return r.read(r.pick())
	default:
		if f := r.pickLong(); f != nil {
			return true, r.truncate(f)
		}
		return r.read(r.pick())
	}
}

func (r *churnRig) pick() *churnFile { return r.files[r.rnd.Intn(len(r.files))] }

// pickLong picks a file with at least one full interior page, or nil.
func (r *churnRig) pickLong() *churnFile {
	for try := 0; try < 8; try++ {
		if f := r.pick(); len(f.keys) >= 2 {
			return f
		}
	}
	return nil
}

// open looks a file up in the root directory and opens it.
func (r *churnRig) open(f *churnFile) (*file.File, error) {
	s := r.t.begin(spDirLookup)
	fn, err := r.root.Lookup(f.name)
	r.t.end(s)
	if err != nil {
		return nil, err
	}
	return r.fs.Open(fn)
}

// create writes a new file through a disk stream and enters it in the root.
func (r *churnRig) create() error {
	f := &churnFile{name: fmt.Sprintf("f%05d", r.serial), keys: make([]uint64, 1+r.rnd.Intn(churnMaxPages))}
	r.serial++
	for i := range f.keys {
		f.keys[i] = r.rnd.Uint64()
	}
	f.lastLen = r.rnd.Intn(disk.PageBytes)

	s := r.t.begin(spFileCreate)
	h, err := r.fs.Create(f.name)
	r.t.end(s)
	if err != nil {
		return err
	}
	s = r.t.begin(spStreamWrite)
	err = r.writeStream(h, f)
	r.t.end(s)
	if err != nil {
		return err
	}
	s = r.t.begin(spDirInsert)
	err = r.root.Insert(f.name, h.FN())
	r.t.end(s)
	if err != nil {
		return err
	}
	r.files = append(r.files, f)
	return nil
}

func (r *churnRig) writeStream(h *file.File, f *churnFile) error {
	st, err := stream.NewDisk(h, r.zone, r.mem, stream.WriteMode)
	if err != nil {
		return err
	}
	for p, key := range f.keys {
		n := disk.PageBytes
		if p == len(f.keys)-1 {
			n = f.lastLen
		}
		pageWords(key, &r.want)
		for i := 0; i < n; i++ {
			b := byte(r.want[i/2])
			if i%2 == 0 {
				b = byte(r.want[i/2] >> 8)
			}
			if err := st.Put(b); err != nil {
				return errors.Join(err, st.Close())
			}
		}
	}
	return st.Close()
}

// read looks a file up, reads it whole and compares it with the model.
func (r *churnRig) read(f *churnFile) (bool, error) {
	h, err := r.open(f)
	if err != nil {
		return false, err
	}
	lastPN, lastLen := h.LastPage()
	if int(lastPN) != len(f.keys) || lastLen != f.lastLen {
		return false, nil
	}
	interior := r.pages[:lastPN-1]
	if len(interior) > 0 {
		s := r.t.begin(spReadPages)
		err := h.ReadPages(1, interior)
		r.t.end(s)
		if err != nil {
			return false, err
		}
	}
	ok := true
	for p := range interior {
		pageWords(f.keys[p], &r.want)
		ok = ok && interior[p] == r.want
	}
	n, err := h.ReadPage(lastPN, &r.pages[0])
	if err != nil {
		return false, err
	}
	pageWords(f.keys[lastPN-1], &r.want)
	got := r.pages[0][:(n+1)/2]
	want := r.want[:(n+1)/2]
	if n%2 == 1 {
		// The odd byte is the high half of the last word.
		k := len(got) - 1
		ok = ok && got[k]>>8 == want[k]>>8
		got, want = got[:k], want[:k]
	}
	for i := range got {
		ok = ok && got[i] == want[i]
	}
	return ok && n == f.lastLen, nil
}

// overwrite rewrites a run of full interior pages with new content.
func (r *churnRig) overwrite(f *churnFile) error {
	pn := 1 + r.rnd.Intn(len(f.keys)-1)
	k := 1 + r.rnd.Intn(min(churnMaxRun, len(f.keys)-pn))
	run := r.pages[:k]
	for i := range run {
		f.keys[pn-1+i] = r.rnd.Uint64()
		pageWords(f.keys[pn-1+i], &run[i])
	}
	h, err := r.open(f)
	if err != nil {
		return err
	}
	s := r.t.begin(spWritePages)
	err = h.WritePages(disk.Word(pn), run)
	r.t.end(s)
	if err != nil {
		return err
	}
	return h.Sync()
}

// truncate cuts a file back to a seeded shorter length.
func (r *churnRig) truncate(f *churnFile) error {
	last := 1 + r.rnd.Intn(len(f.keys)-1)
	n := r.rnd.Intn(disk.PageBytes)
	h, err := r.open(f)
	if err != nil {
		return err
	}
	if err := h.Truncate(disk.Word(last), n); err != nil {
		return err
	}
	f.keys, f.lastLen = f.keys[:last], n
	return nil
}

// remove deletes a file and its directory entry.
func (r *churnRig) remove(f *churnFile) error {
	h, err := r.open(f)
	if err != nil {
		return err
	}
	if err := h.Delete(); err != nil {
		return err
	}
	if err := r.root.Remove(f.name); err != nil {
		return err
	}
	for i, g := range r.files {
		if g == f {
			r.files[i] = r.files[len(r.files)-1]
			r.files = r.files[:len(r.files)-1]
			break
		}
	}
	return nil
}

// maintain damages labels the Scavenger can repair without losing data —
// the link hints of live pages, and free pages turned to garbage — then
// scavenges, compacts when asked, and checks the pack.
func (r *churnRig) maintain(compact bool) error {
	var live, free []disk.VDA
	for a := 0; a < r.drv.Geometry().NSectors(); a++ {
		w, _ := r.drv.PeekLabel(disk.VDA(a))
		l := disk.LabelFromWords(w)
		switch {
		case disk.IsFreeLabel(w):
			free = append(free, disk.VDA(a))
		case disk.InUse(w) && !l.FID.IsDirectory() && l.FID >= disk.FirstUserFID && l.PageNum >= 1:
			live = append(live, disk.VDA(a))
		}
	}
	for i := 0; i < churnDamage; i++ {
		a := live[r.rnd.Intn(len(live))]
		w, _ := r.drv.PeekLabel(a)
		w[5] ^= r.rnd.Word() | 1 // next link
		w[6] ^= r.rnd.Word() | 1 // previous link
		r.drv.ZapLabel(a, w)
		r.drv.CorruptLabel(free[r.rnd.Intn(len(free))], r.rnd)
	}

	start := r.m.clock.Now()
	s := r.t.begin(spScavenge)
	fs, _, err := scavenge.Run(r.drv)
	r.t.end(s)
	r.e.scavSim += r.m.clock.Now() - start
	if err != nil {
		return fmt.Errorf("scavenge: %w", err)
	}
	if compact {
		s := r.t.begin(spCompact)
		fs, _, err = scavenge.Compact(r.drv)
		r.t.end(s)
		if err != nil {
			return fmt.Errorf("compact: %w", err)
		}
	}
	r.fs = fs
	if r.root, err = dir.OpenRoot(fs); err != nil {
		return err
	}
	s = r.t.begin(spFsck)
	rep, err := fsck.Check(r.drv)
	r.t.end(s)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	r.e.violations += int64(len(rep.Violations))
	return nil
}
