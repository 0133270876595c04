package dir

import (
	"errors"
	"fmt"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// twin is one of two identically built packs: the equivalence tests run the
// oracle on one and the entry scanner on the other, and compare both the
// answers and everything the disk saw.
type twin struct {
	drv   *disk.Drive
	fs    *file.FS
	rec   *trace.Recorder
	dirs  []file.FN // root first, then the subdirectories
	names []string  // names worth probing, present and absent
	fvs   []disk.FV // FVs worth probing, present and absent
	spoil int       // the damage kind applied, or -1
}

// buildTwin makes a pack whose shape follows seed alone: a root and up to
// four subdirectories (a graph with a cycle and a dangling directory
// entry), filled by Insert or by Store, with names of 1 to maxName bytes,
// duplicate names and FVs, pad marks, and, for most seeds, one damaged
// directory page.
func buildTwin(t testing.TB, seed uint64) *twin {
	t.Helper()
	r := sim.NewRand(seed)
	drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(256)
	drv.SetRecorder(rec)
	fs, err := file.Format(drv)
	if err != nil {
		t.Fatal(err)
	}
	root, err := InitRoot(fs)
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{drv: drv, fs: fs, rec: rec, dirs: []file.FN{root.FN()}, spoil: -1}
	opened := []*Directory{root}
	for k := r.Intn(5); k > 0; k-- {
		parent := opened[r.Intn(len(opened))]
		sub, err := Create(fs, parent, fmt.Sprintf("sub%d.", len(opened)))
		if err != nil {
			t.Fatal(err)
		}
		if r.Bool(1, 2) {
			if err := sub.Insert("up.", root.FN()); err != nil {
				t.Fatal(err)
			}
		}
		opened = append(opened, sub)
		tw.dirs = append(tw.dirs, sub.FN())
	}

	var made []file.FN
	mkFN := func() file.FN {
		switch x := r.Intn(20); {
		case x == 0 && len(made) > 0:
			return made[r.Intn(len(made))] // a duplicate FV
		case x == 1:
			return tw.dirs[r.Intn(len(tw.dirs))] // another name for a directory
		case x == 2: // a directory entry that leads nowhere
			return file.FN{FV: disk.FV{FID: disk.DirFIDBit | disk.FID(0x7000+r.Intn(16)), Version: 1}, Leader: disk.VDA(r.Intn(4000))}
		}
		fn := file.FN{FV: disk.FV{FID: disk.FirstUserFID + disk.FID(r.Intn(5000)), Version: disk.Word(1 + r.Intn(3))}, Leader: disk.VDA(r.Intn(4000))}
		made = append(made, fn)
		return fn
	}
	for _, d := range opened {
		n := r.Intn(60)
		if d == root {
			n = r.Intn(160)
		}
		if r.Bool(1, 3) {
			// Store takes the list as given, duplicate names included, so
			// lookups must return the first match.
			list := make([]Entry, n)
			for i := range list {
				list[i] = Entry{Name: randName(r), FN: mkFN()}
				if i > 0 && r.Bool(1, 8) {
					list[i].Name = list[r.Intn(i)].Name
				}
				tw.names = append(tw.names, list[i].Name)
			}
			if err := d.Store(list); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for i := 0; i < n; i++ {
			name := randName(r)
			if err := d.Insert(name, mkFN()); err != nil && !errors.Is(err, ErrExists) {
				t.Fatal(err)
			}
			tw.names = append(tw.names, name)
		}
	}
	tw.names = append(thin(tw.names), "nonesuch", "SysDir.", "up.", "sub1.", "")
	for _, fn := range thin(made) {
		tw.fvs = append(tw.fvs, fn.FV)
	}
	tw.fvs = append(tw.fvs, tw.dirs[len(tw.dirs)-1].FV, disk.FV{FID: 0x7777, Version: 9})

	if r.Bool(3, 4) {
		tw.spoil = damage(t, r, opened[r.Intn(len(opened))])
	}
	return tw
}

// thin keeps an evenly spread sample of at most 24 probes, so every
// directory, early pages and late, still gets some.
func thin[T any](all []T) []T {
	step := max(1, len(all)/24)
	var out []T
	for i := 0; i < len(all); i += step {
		out = append(out, all[i])
	}
	return out
}

// randName returns a name of 1 to maxName bytes, mostly short.
func randName(r *sim.Rand) string {
	n := 1 + r.Intn(12)
	switch r.Intn(10) {
	case 0:
		n = 1 + r.Intn(maxName)
	case 1, 2:
		n = 13 + r.Intn(48)
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789.-$"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// Damage kinds.
const (
	badLength = iota
	badNameLength
	shortTail
	bitRot
	damageKinds
)

// damage spoils one page of d: a bad entry length word, an oversized name
// length, a short last page (a tail cut off mid-entry or whole pages lost),
// or random bit flips behind the file system's back. It returns the kind.
func damage(t testing.TB, r *sim.Rand, d *Directory) int {
	t.Helper()
	f := d.File()
	lastPN, lastLen := f.LastPage()
	pn := disk.Word(1 + r.Intn(int(lastPN)))
	var buf [disk.PageWords]disk.Word
	n, err := f.ReadPage(pn, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Collect the entry offsets on the page.
	var at []int
	for i := 0; i < (n+1)/2 && buf[i] != endMark && buf[i] != padMark; i += int(buf[i]) {
		at = append(at, i)
	}
	kind := r.Intn(damageKinds)
	if len(at) == 0 && kind < shortTail {
		kind = bitRot
	}
	switch kind {
	case badLength:
		i := at[r.Intn(len(at))]
		buf[i] = disk.Word(r.Intn(entryFixed + 1))
		if r.Bool(1, 2) {
			buf[i] = disk.Word(disk.PageWords + r.Intn(100))
		}
	case badNameLength:
		i := at[r.Intn(len(at))]
		buf[i+5] = 2*(buf[i]-entryFixed) + 1 + disk.Word(r.Intn(40))
	case shortTail:
		newLast := disk.Word(1 + r.Intn(int(lastPN)))
		newLen := r.Intn(disk.PageBytes)
		if newLast == lastPN && lastLen > 0 {
			newLen = r.Intn(lastLen)
		}
		if err := f.Truncate(newLast, newLen); err != nil {
			t.Fatal(err)
		}
		return kind
	case bitRot:
		a, err := f.PageAddr(pn)
		if err != nil {
			t.Fatal(err)
		}
		// Rot the page behind the file's back: the recorder sees the
		// stale checksum on every later read.
		for k := 0; k < 1+r.Intn(4); k++ {
			w := r.Intn(min(disk.PageWords, (n+1)/2+1))
			buf[w] ^= 1 << uint(r.Intn(16))
		}
		d.fs.Device().(*disk.Drive).ZapValue(a, buf)
		return kind
	}
	if err := f.WritePage(pn, &buf, n); err != nil {
		t.Fatal(err)
	}
	return kind
}

// traffic is everything the disk layer can tell about a run.
type traffic struct {
	Disk  disk.Stats
	File  file.Stats
	Now   string
	Trace trace.Metrics
}

func (tw *twin) traffic() traffic {
	return traffic{tw.drv.Stats(), tw.fs.Stats(), tw.drv.Clock().Now().String(), tw.rec.Snapshot()}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// dirAPI is the set of directory reads under comparison: the scanner's or
// the oracle's.
type dirAPI struct {
	load        func(*Directory) ([]Entry, error)
	lookup      func(*Directory, string) (file.FN, error)
	lookupFV    func(*Directory, disk.FV) (file.FN, error)
	walk        func(*file.FS, file.FN, func(*Directory) error) error
	resolveName func(*file.FS, string) (file.FN, error)
	resolveFV   func(*file.FS, disk.FV) (disk.VDA, error)
}

var scanAPI = dirAPI{
	load:        (*Directory).Load,
	lookup:      (*Directory).Lookup,
	lookupFV:    (*Directory).LookupFV,
	walk:        Walk,
	resolveName: ResolveName,
	resolveFV:   func(fs *file.FS, fv disk.FV) (disk.VDA, error) { return ResolveFV(fs)(fv) },
}

var oracleAPI = dirAPI{
	load:        (*Directory).loadOracle,
	lookup:      (*Directory).lookupOracle,
	lookupFV:    (*Directory).lookupFVOracle,
	walk:        walkOracle,
	resolveName: resolveNameOracle,
	resolveFV:   resolveFVOracle,
}

// exercise runs every read in api over tw and returns a transcript of the
// answers, one line per call, each followed by the disk traffic so far.
func exercise(t testing.TB, tw *twin, api dirAPI) []string {
	t.Helper()
	var out []string
	note := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...), fmt.Sprintf("  traffic %+v", tw.traffic()))
	}
	for _, fn := range tw.dirs {
		d, err := Open(tw.fs, fn)
		if err != nil {
			note("open %v: %s", fn, errText(err))
			continue
		}
		entries, err := api.load(d)
		note("load %v: %d entries %q %s", fn, len(entries), entries, errText(err))
		for _, name := range tw.names {
			got, err := api.lookup(d, name)
			note("lookup %q: %v %s", name, got, errText(err))
		}
		for _, fv := range tw.fvs {
			got, err := api.lookupFV(d, fv)
			note("lookupFV %v: %v %s", fv, got, errText(err))
		}
	}
	var visited []file.FN
	err := api.walk(tw.fs, tw.fs.RootDir(), func(d *Directory) error {
		visited = append(visited, d.FN())
		return nil
	})
	note("walk: %v %s", visited, errText(err))
	for _, name := range tw.names {
		got, err := api.resolveName(tw.fs, name)
		note("resolveName %q: %v %s", name, got, errText(err))
	}
	for _, fv := range tw.fvs {
		got, err := api.resolveFV(tw.fs, fv)
		note("resolveFV %v: %v %s", fv, got, errText(err))
	}
	return out
}

// TestScannerMatchesOracle builds twin packs from many seeds and checks that
// every directory read answers exactly as the decode-then-search code did,
// partial entries and errors included, with the same disk operations, the
// same simulated time and the same trace counters.
func TestScannerMatchesOracle(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		want := exercise(t, buildTwin(t, seed), oracleAPI)
		got := exercise(t, buildTwin(t, seed), scanAPI)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d transcript lines, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: first difference at line %d:\n oracle: %s\n    got: %s\n after: %s",
					seed, i, want[i], got[i], prev(want, i))
			}
		}
	}
}

func prev(lines []string, i int) string {
	if i == 0 {
		return "(start)"
	}
	return lines[i-1]
}

// TestTwinsCoverDamage checks that the seeds the equivalence test uses
// reach every directory shape and every kind of damage it claims to cover.
func TestTwinsCoverDamage(t *testing.T) {
	var format, clean, multiPage, subdirs, pads, longest int
	var kinds [damageKinds]int
	for seed := uint64(1); seed <= 40; seed++ {
		tw := buildTwin(t, seed)
		if tw.spoil >= 0 {
			kinds[tw.spoil]++
		}
		if len(tw.dirs) > 1 {
			subdirs++
		}
		for _, name := range tw.names {
			longest = max(longest, len(name))
		}
		for _, fn := range tw.dirs {
			d, err := Open(tw.fs, fn)
			if err != nil {
				continue
			}
			if d.File().LastPN() > 1 {
				multiPage++
			}
			if _, err := d.Load(); errors.Is(err, ErrFormat) {
				format++
			} else if err == nil {
				clean++
			}
			for pn := disk.Word(1); pn <= d.File().LastPN(); pn++ {
				var buf [disk.PageWords]disk.Word
				if _, err := d.File().ReadPage(pn, &buf); err != nil {
					continue
				}
				for i := 0; i < disk.PageWords && buf[i] >= entryFixed+1; i += int(buf[i]) {
					if buf[i] == padMark {
						pads++
						break
					}
				}
			}
		}
	}
	t.Logf("directories: %d clean, %d malformed, %d multi-page; %d packs with subdirectories; %d pad marks; damage kinds %v; longest name %d",
		clean, format, multiPage, subdirs, pads, kinds, longest)
	if format == 0 || clean == 0 || multiPage == 0 || subdirs == 0 || pads == 0 || longest < maxName/2 {
		t.Error("the seeds miss a directory shape the equivalence test must cover")
	}
	for k, n := range kinds {
		if n == 0 {
			t.Errorf("no seed applies damage kind %d", k)
		}
	}
}
