package disk

// The sparse pack against the dense oracle (dense_test.go): twin drives run
// the same operation sequences, drawn from a seeded generator or from fuzz
// bytes, and must agree on every result, buffer, statistic, clock reading,
// peek, trace event and image byte.

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// peek returns a copy of the raw sector, the format pattern for a
// never-written one: the pack examined offline, for tests.
func (d *Drive) peek(addr VDA) (sector, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= d.nsector {
		return sector{}, false
	}
	if s := d.at(addr); s != nil {
		return *s, true
	}
	return formatted(d.pack, addr), true
}

// stored counts the units holding storage of their own.
func (d *Drive) stored() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, u := range d.units {
		if u != nil {
			n++
		}
	}
	return n
}

// twinGeometry is small enough that an image is cheap to compare, with
// enough cylinders that sequences touch some and leave others unwritten.
func twinGeometry() Geometry {
	g := Diablo31()
	g.Name = "Diablo31/6"
	g.Cylinders = 6
	return g
}

// chooser is the source of a twin sequence's choices: a seeded sim.Rand, or
// fuzz bytes.
type chooser interface{ Intn(n int) int }

// byteChooser reads choices from fuzz input; once the bytes run out every
// choice is 0 and the sequence stops.
type byteChooser struct {
	data []byte
	i    int
}

func (b *byteChooser) Intn(n int) int {
	v := 0
	for m := 1; m < n; m <<= 8 {
		v <<= 8
		if b.i < len(b.data) {
			v |= int(b.data[b.i])
			b.i++
		}
	}
	return v % n
}

func (b *byteChooser) done() bool { return b.i >= len(b.data) }

// twin is a sparse drive and a dense one that have seen the same history.
type twin struct {
	t      testing.TB
	c      chooser
	g      Geometry
	sp     *Drive
	dn     *denseDrive
	spRec  *trace.Recorder
	dnRec  *trace.Recorder
	step   int
	action string
}

func newTwin(t testing.TB, c chooser) *twin {
	g := twinGeometry()
	sp, err := NewDrive(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := newDenseDrive(g, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &twin{t: t, c: c, g: g, sp: sp, dn: dn}
}

func (tw *twin) fail(format string, args ...any) {
	tw.t.Helper()
	tw.t.Fatalf("step %d (%s): %s", tw.step, tw.action, fmt.Sprintf(format, args...))
}

// addr picks an address: mostly a few hot sectors, sometimes anywhere,
// rarely one past the end.
func (tw *twin) addr() VDA {
	n := tw.g.NSectors()
	unit := tw.g.Heads * tw.g.SectorsPerTrack
	switch tw.c.Intn(16) {
	case 0:
		return VDA(n)
	case 1, 2, 3, 4, 5:
		return VDA(tw.c.Intn(4))
	case 6, 7, 8:
		return VDA(2*unit + tw.c.Intn(3))
	default:
		return VDA(tw.c.Intn(n))
	}
}

func (tw *twin) label() [LabelWords]Word {
	switch k := tw.c.Intn(6); k {
	case 0:
		return freeLabelWords
	case 1:
		return badLabelWords
	default:
		return testLabel(Word(k - 2)).Words()
	}
}

func (tw *twin) value() [PageWords]Word {
	var v [PageWords]Word
	switch k := tw.c.Intn(4); k {
	case 0:
		v = onesValue
	case 1:
	default:
		fill(&v, Word(k)<<8)
	}
	return v
}

// wildcard zeroes some words of a check pattern, or all of them.
func (tw *twin) wildcard(w []Word) {
	all := tw.c.Intn(6) == 0
	for i := range w {
		if all || tw.c.Intn(4) == 0 {
			w[i] = 0
		}
	}
}

// op draws one operation of any shape, malformed ones included.
func (tw *twin) op() Op {
	op := Op{Addr: tw.addr()}
	shape := tw.c.Intn(64)
	op.Header, op.Label, op.Value = Action(shape>>4), Action(shape>>2&3), Action(shape&3)
	missing := tw.c.Intn(32) == 0 // a malformed op: one buffer left out
	if op.Header != None && !missing {
		h := Header{Pack: 3, Addr: op.Addr}.Words()
		switch op.Header {
		case Read:
			h = [HeaderWords]Word{0x1234, 0x5678}
		case Check:
			if tw.c.Intn(4) == 0 {
				h[0] = 9 // wrong pack
			}
			tw.wildcard(h[:])
		}
		op.HeaderData = &h
	}
	if op.Label != None {
		l := tw.label()
		switch op.Label {
		case Read:
			l = [LabelWords]Word{0xBEEF}
		case Check:
			tw.wildcard(l[:])
		}
		op.LabelData = &l
	}
	if op.Value != None {
		v := tw.value()
		switch op.Value {
		case Read:
			fill(&v, 0xD00D)
		case Check:
			tw.wildcard(v[:])
		}
		op.ValueData = &v
	}
	return op
}

// clone deep-copies an op's buffers so each twin gets its own.
func clone(op Op) Op {
	if op.HeaderData != nil {
		h := *op.HeaderData
		op.HeaderData = &h
	}
	if op.LabelData != nil {
		l := *op.LabelData
		op.LabelData = &l
	}
	if op.ValueData != nil {
		v := *op.ValueData
		op.ValueData = &v
	}
	return op
}

func sameOp(a, b *Op) bool {
	if a.Addr != b.Addr || a.Header != b.Header || a.Label != b.Label || a.Value != b.Value {
		return false
	}
	return (a.HeaderData == nil) == (b.HeaderData == nil) && (a.HeaderData == nil || *a.HeaderData == *b.HeaderData) &&
		(a.LabelData == nil) == (b.LabelData == nil) && (a.LabelData == nil || *a.LabelData == *b.LabelData) &&
		(a.ValueData == nil) == (b.ValueData == nil) && (a.ValueData == nil || *a.ValueData == *b.ValueData)
}

func errText(err error) string { return fmt.Sprint(err) }

// seed draws a seed for the sim.Rand each twin's fault injector consumes.
func (tw *twin) seed() uint64 { return uint64(tw.c.Intn(1<<16)) + 1 }

// move applies one random action to both drives and compares them.
func (tw *twin) move() {
	tw.t.Helper()
	tw.step++
	var touched []VDA
	switch k := tw.c.Intn(64); {
	case k < 36:
		tw.action = "do"
		a := tw.op()
		b := clone(a)
		ea, eb := tw.sp.Do(&a), tw.dn.Do(&b)
		if errText(ea) != errText(eb) || !sameOp(&a, &b) {
			tw.fail("Do(%+v): sparse %v, dense %v", a, ea, eb)
		}
		touched = append(touched, a.Addr)
	case k < 46:
		tw.action = "chain"
		mode := ChainMode(tw.c.Intn(2))
		n := 1 + tw.c.Intn(6)
		a, b := make([]Op, n), make([]Op, n)
		for i := range a {
			a[i] = tw.op()
			b[i] = clone(a[i])
			touched = append(touched, a[i].Addr)
		}
		ea, eb := tw.sp.DoChain(a, mode), tw.dn.DoChain(b, mode)
		if len(ea) != len(eb) {
			tw.fail("DoChain %v: %d errors, dense %d", mode, len(ea), len(eb))
		}
		for i := range ea {
			if errText(ea[i]) != errText(eb[i]) {
				tw.fail("DoChain %v op %d: sparse %v, dense %v", mode, i, ea[i], eb[i])
			}
		}
		for i := range a {
			if !sameOp(&a[i], &b[i]) {
				tw.fail("DoChain %v op %d: sparse %+v, dense %+v", mode, i, a[i], b[i])
			}
		}
	case k < 48:
		tw.action = "zap label"
		a, w := tw.addr(), tw.label()
		tw.sp.ZapLabel(a, w)
		tw.dn.ZapLabel(a, w)
		touched = append(touched, a)
	case k < 50:
		tw.action = "zap value"
		a, v := tw.addr(), tw.value()
		tw.sp.ZapValue(a, v)
		tw.dn.ZapValue(a, v)
		touched = append(touched, a)
	case k < 52:
		tw.action = "corrupt"
		a, s := tw.addr(), tw.seed()
		if tw.c.Intn(2) == 0 {
			tw.sp.CorruptLabel(a, sim.NewRand(s))
			tw.dn.CorruptLabel(a, sim.NewRand(s))
		} else {
			tw.sp.CorruptValue(a, sim.NewRand(s))
			tw.dn.CorruptValue(a, sim.NewRand(s))
		}
		touched = append(touched, a)
	case k < 54:
		tw.action = "bad"
		a := tw.addr()
		if tw.c.Intn(3) == 0 {
			tw.sp.HealBad(a)
			tw.dn.HealBad(a)
		} else {
			tw.sp.MarkBad(a)
			tw.dn.MarkBad(a)
		}
		touched = append(touched, a)
	case k < 56:
		tw.action = "rot"
		n, s := tw.c.Intn(4), tw.seed()
		var filter func(Label) bool
		if tw.c.Intn(2) == 0 {
			filter = func(l Label) bool { return l.PageNum%2 == 0 }
		}
		ra, rb := tw.sp.Rot(sim.NewRand(s), n, filter), tw.dn.Rot(sim.NewRand(s), n, filter)
		if !reflect.DeepEqual(ra, rb) {
			tw.fail("Rot struck %v, dense %v", ra, rb)
		}
		touched = append(touched, ra...)
	case k < 58:
		tw.action = "arm crash"
		n, torn := int64(tw.c.Intn(5))-1, tw.c.Intn(2) == 0
		tw.sp.SetTornCrash(torn)
		tw.dn.SetTornCrash(torn)
		tw.sp.CrashAfterWrites(n)
		tw.dn.CrashAfterWrites(n)
	case k < 59:
		tw.action = "clear crash"
		tw.sp.ClearCrash()
		tw.dn.ClearCrash()
	case k < 62:
		tw.action = "recorder"
		if tw.spRec == nil || tw.c.Intn(4) == 0 {
			tw.spRec, tw.dnRec = trace.New(1<<12), trace.New(1<<12)
		}
		tw.sp.SetRecorder(tw.spRec)
		tw.dn.SetRecorder(tw.dnRec)
	case k < 63:
		tw.action = "image"
		tw.sameImage()
	default:
		tw.action = "image round trip"
		tw.reload()
	}
	touched = append(touched, tw.addr())
	tw.compare(touched)
}

// compare checks everything observable without moving either drive.
func (tw *twin) compare(addrs []VDA) {
	tw.t.Helper()
	if a, b := tw.sp.Stats(), tw.dn.Stats(); a != b {
		tw.fail("Stats %+v, dense %+v", a, b)
	}
	if a, b := tw.sp.Clock().Now(), tw.dn.clock.Now(); a != b {
		tw.fail("clock %v, dense %v", a, b)
	}
	if a, b := tw.sp.Crashed(), tw.dn.Crashed(); a != b {
		tw.fail("Crashed %v, dense %v", a, b)
	}
	at, af := tw.sp.CrashAt()
	bt, bf := tw.dn.CrashAt()
	if at != bt || af != bf {
		tw.fail("CrashAt %d %v, dense %d %v", at, af, bt, bf)
	}
	for _, a := range addrs {
		la, oka := tw.sp.PeekLabel(a)
		lb, okb := tw.dn.PeekLabel(a)
		if la != lb || oka != okb {
			tw.fail("PeekLabel(%d) %v %v, dense %v %v", a, la, oka, lb, okb)
		}
		ca, oka := tw.sp.PeekVCRC(a)
		cb, okb := tw.dn.PeekVCRC(a)
		if ca != cb || oka != okb {
			tw.fail("PeekVCRC(%d) %#04x %v, dense %#04x %v", a, ca, oka, cb, okb)
		}
		sa, oka := tw.sp.peek(a)
		sb, okb := tw.dn.peek(a)
		if oka != okb || sa.header != sb.header || sa.label != sb.label || sa.value != sb.value || sa.bad != sb.bad {
			tw.fail("sector %d differs from the dense one", a)
		}
	}
}

func (tw *twin) images() ([]byte, []byte) {
	tw.t.Helper()
	var a, b bytes.Buffer
	if err := tw.sp.SaveImage(&a); err != nil {
		tw.fail("SaveImage: %v", err)
	}
	if err := tw.dn.SaveImage(&b); err != nil {
		tw.fail("dense SaveImage: %v", err)
	}
	return a.Bytes(), b.Bytes()
}

func (tw *twin) sameImage() {
	tw.t.Helper()
	if a, b := tw.images(); !bytes.Equal(a, b) {
		tw.fail("SaveImage: %d bytes differ from the dense image's %d", len(a), len(b))
	}
}

// reload saves the pack and loads it back into fresh twins on clocks that
// read what the old ones did, as a rebooted machine would find it.
func (tw *twin) reload() {
	tw.t.Helper()
	img, _ := tw.images()
	ca, cb := sim.NewClock(), sim.NewClock()
	ca.AdvanceTo(tw.sp.Clock().Now())
	cb.AdvanceTo(tw.dn.clock.Now())
	sp, err := LoadImage(bytes.NewReader(img), ca)
	if err != nil {
		tw.fail("LoadImage: %v", err)
	}
	dn, err := loadDenseImage(bytes.NewReader(img), cb)
	if err != nil {
		tw.fail("dense LoadImage: %v", err)
	}
	tw.sp, tw.dn = sp, dn
	tw.sameImage()
}

// finish compares the images and both recorders' whole output.
func (tw *twin) finish() {
	tw.t.Helper()
	tw.action = "finish"
	tw.sameImage()
	if !reflect.DeepEqual(tw.spRec.Events(), tw.dnRec.Events()) {
		tw.fail("trace events differ from the dense drive's")
	}
	if a, b := tw.spRec.Snapshot().Text(), tw.dnRec.Snapshot().Text(); a != b {
		tw.fail("metrics differ from the dense drive's:\n%s\ndense:\n%s", a, b)
	}
}

func TestSparseMatchesDense(t *testing.T) {
	seeds, steps := 40, 400
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		tw := newTwin(t, sim.NewRand(seed))
		for i := 0; i < steps; i++ {
			tw.move()
		}
		tw.finish()
	}
}

func FuzzDriveTwin(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := sim.NewRand(seed)
		in := make([]byte, 64*int(seed))
		for i := range in {
			in[i] = byte(r.Uint64())
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{data: data}
		tw := newTwin(t, c)
		for steps := 0; steps < 1000 && !c.done(); steps++ {
			tw.move()
		}
		tw.finish()
	})
}

// A fresh pack stores nothing: NewDrive's cost does not grow with the pack.
func TestNewDriveAllocatesLittle(t *testing.T) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewDrive(Diablo31(), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("NewDrive(Diablo31()) allocates %d bytes; want under 64 KB", per)
	}
}

func TestReadUnwrittenAllocatesNothing(t *testing.T) {
	d := newTestDrive(t)
	var lbl [LabelWords]Word
	var v [PageWords]Word
	read := Op{Addr: 200, Label: Read, LabelData: &lbl, Value: Read, ValueData: &v}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Do(&read); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading an unwritten sector: %v allocs, want 0", n)
	}
	pat := freeLabelWords
	check := Op{Addr: 300, Label: Check, LabelData: &pat, Value: Check, ValueData: &v}
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Do(&check); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checking an unwritten sector: %v allocs, want 0", n)
	}
	if n := d.stored(); n != 0 {
		t.Errorf("reads and checks stored %d units, want 0", n)
	}
}

func TestFirstWriteStoresOneUnit(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	fill(&v, 1)
	if err := Allocate(d, 30, testLabel(0), &v); err != nil {
		t.Fatal(err)
	}
	if n := d.stored(); n != 1 {
		t.Fatalf("first write stored %d units, want 1", n)
	}
	if err := WriteValue(d, 31, freeLabel(), &v); err != nil {
		t.Fatal(err)
	}
	if n := d.stored(); n != 1 {
		t.Errorf("a second write in the same unit stored %d units, want 1", n)
	}
	// Once power has failed every write is suppressed, so nothing is stored.
	d.CrashAfterWrites(0)
	if err := WriteValue(d, 31, freeLabel(), &v); err == nil {
		t.Fatal("the crashing write succeeded")
	}
	if err := WriteValue(d, 2000, freeLabel(), &v); err == nil {
		t.Fatal("write after the crash succeeded")
	}
	if n := d.stored(); n != 1 {
		t.Errorf("suppressed writes stored %d units, want 1", n)
	}
	d.ClearCrash()
	if err := WriteValue(d, 2000, freeLabel(), &v); err != nil {
		t.Fatal(err)
	}
	if n := d.stored(); n != 2 {
		t.Errorf("after a write to a second cylinder: %d units, want 2", n)
	}
}

func freeLabel() Label { return LabelFromWords(freeLabelWords) }

func BenchmarkNewDrive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDrive(Diablo31(), 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadUnwritten(b *testing.B) {
	d, err := NewDrive(Diablo31(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	pat := freeLabelWords
	var v [PageWords]Word
	op := Op{Label: Check, LabelData: &pat, Value: Read, ValueData: &v}
	n := VDA(d.Geometry().NSectors())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op.Addr = VDA(i*7) % n
		if err := d.Do(&op); err != nil {
			b.Fatal(err)
		}
	}
}
