package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"altoos/internal/sim"
)

// Handles the tests bump. Interning at package init is the pattern every
// instrumented package follows.
var (
	cTest      = NewCounter("c")
	cCheckFail = NewCounter("disk.check.fail")
	cZoneAlloc = NewCounter("zone.alloc")
	hTest      = NewHist("h")
	hRevs      = NewHist("disk.op.revs")
	hLat       = NewHist("lat")
	hOne       = NewHist("one")
	hDepth     = NewHist("ether.queue.depth")
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(time.Second, KindDiskOp, "op", 1, 2)
	r.EmitSpan(0, time.Second, KindSeek, "seek", 0, 1)
	r.Add(cTest, 1)
	r.Observe(hTest, 3)
	r.Reset()
	sp := r.Begin(sim.NewClock(), KindScavPhase, "sweep", 0, 0)
	sp.End()
	sp.EndWith(1, 2)
	if r.Len() != 0 || r.Counter("c") != 0 || r.Events() != nil {
		t.Fatal("nil recorder recorded something")
	}
	m := r.Snapshot()
	if m.Events != 0 || len(m.Counters) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", m)
	}
}

func TestSpanPairing(t *testing.T) {
	c := sim.NewClock()
	r := New(16)
	c.Advance(10 * time.Millisecond)
	sp := r.Begin(c, KindScavPhase, "sweep", 0, 0)
	c.Advance(30 * time.Millisecond)
	sp.EndWith(7, 8)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.T != 10*time.Millisecond || ev.Dur != 30*time.Millisecond {
		t.Errorf("span [%v +%v], want [10ms +30ms]", ev.T, ev.Dur)
	}
	if ev.A0 != 7 || ev.A1 != 8 {
		t.Errorf("EndWith args %d,%d not recorded", ev.A0, ev.A1)
	}
}

func TestRingEvictsOldestAndCountsDropped(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(time.Duration(i), KindZoneAlloc, "", int64(i), 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.A0 != want {
			t.Errorf("event %d is A0=%d, want %d (oldest-first order)", i, ev.A0, want)
		}
	}
	if m := r.Snapshot(); m.Events != 10 || m.Dropped != 6 {
		t.Errorf("emitted/dropped = %d/%d, want 10/6", m.Events, m.Dropped)
	}
}

// The ring starts small and doubles up to its capacity; once full it
// evicts oldest first exactly as a ring allocated whole would.
func TestRingGrowsToCapacity(t *testing.T) {
	if r := New(DefaultEvents); cap(r.ring) > DefaultEvents/64 {
		t.Errorf("a fresh DefaultEvents recorder holds room for %d events", cap(r.ring))
	}
	const capacity = 600 // not a doubling of the first ring
	r := New(capacity)
	for i := 0; i < 1500; i++ {
		r.Emit(time.Duration(i), KindZoneAlloc, "", int64(i), 0)
		if n := r.Len(); n != min(i+1, capacity) || cap(r.ring) > capacity {
			t.Fatalf("after %d events: ring holds %d with room for %d", i+1, n, cap(r.ring))
		}
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(1500 - capacity + i); ev.A0 != want {
			t.Fatalf("event %d is A0=%d, want %d (oldest-first order)", i, ev.A0, want)
		}
	}
	if m := r.Snapshot(); m.Events != 1500 || m.Dropped != 1500-capacity {
		t.Errorf("emitted/dropped = %d/%d, want 1500/%d", m.Events, m.Dropped, 1500-capacity)
	}
}

func TestCountersAndHistograms(t *testing.T) {
	r := New(4)
	r.Add(cCheckFail, 2)
	r.Add(cCheckFail, 3)
	r.Add(cZoneAlloc, 1)
	for _, v := range []float64{0.5, 1, 2, 3, 1000} {
		r.Observe(hRevs, v)
	}
	if got := r.Counter("disk.check.fail"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	m := r.Snapshot()
	if len(m.Counters) != 2 || m.Counters[0].Name != "disk.check.fail" {
		t.Errorf("counters not sorted by name: %+v", m.Counters)
	}
	if len(m.Histograms) != 1 {
		t.Fatalf("got %d histograms", len(m.Histograms))
	}
	h := m.Histograms[0]
	if h.Count != 5 || h.Min != 0.5 || h.Max != 1000 {
		t.Errorf("hist n=%d min=%v max=%v", h.Count, h.Min, h.Max)
	}
	if want := (0.5 + 1 + 2 + 3 + 1000) / 5; h.Mean() != want {
		t.Errorf("mean = %v, want %v", h.Mean(), want)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != 5 {
		t.Errorf("bucket counts sum to %d, want 5", total)
	}
}

// TestHistogramPercentiles pins the bucket-derived quantiles: each is the
// upper bound of the log₂ bucket where the cumulative count crosses the
// quantile, clamped to the observed extremes — integer math only, so two
// snapshots of the same samples agree to the byte.
func TestHistogramPercentiles(t *testing.T) {
	r := New(4)
	for i := 0; i < 50; i++ {
		r.Observe(hLat, 1) // bucket lt=2
	}
	for i := 0; i < 40; i++ {
		r.Observe(hLat, 4) // bucket lt=8
	}
	for i := 0; i < 10; i++ {
		r.Observe(hLat, 100) // bucket lt=128, clamped to max
	}
	h := r.Snapshot().Histograms[0]
	if h.P50 != 2 || h.P90 != 8 || h.P99 != 100 {
		t.Errorf("p50/p90/p99 = %v/%v/%v, want 2/8/100", h.P50, h.P90, h.P99)
	}

	// A single sub-unit sample: every percentile clamps to the one value.
	r2 := New(4)
	r2.Observe(hOne, 0.5)
	if h := r2.Snapshot().Histograms[0]; h.P50 != 0.5 || h.P99 != 0.5 {
		t.Errorf("single-sample percentiles = %v/%v, want 0.5/0.5", h.P50, h.P99)
	}

	text := r.Snapshot().Text()
	for _, want := range []string{"p50=2.00", "p90=8.00", "p99=100.00"} {
		if !strings.Contains(text, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsText(t *testing.T) {
	r := New(4)
	r.Add(cZoneAlloc, 3)
	r.Observe(hDepth, 2)
	text := r.Snapshot().Text()
	for _, want := range []string{"events", "zone.alloc", "3", "ether.queue.depth", "n=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestReset(t *testing.T) {
	r := New(4)
	r.Emit(0, KindZoneAlloc, "", 0, 0)
	r.Add(cTest, 1)
	r.Observe(hTest, 1)
	r.Reset()
	if r.Len() != 0 || r.Counter("c") != 0 {
		t.Error("Reset left state behind")
	}
	if m := r.Snapshot(); m.Events != 0 || len(m.Histograms) != 0 {
		t.Errorf("Reset left aggregates: %+v", m)
	}
}

func TestKindStringsTotal(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if k.Category() == "?" {
			t.Errorf("kind %v has no category", k)
		}
		a0, a1 := k.ArgNames()
		if a0 == "" || a1 == "" {
			t.Errorf("kind %v has unnamed args", k)
		}
	}
}

// TestSnapshotTextPinned pins the text snapshot of a fixed mix — a counter
// bumped only by zero (listed), an interned counter never bumped (not
// listed), a negative counter, histograms — to the bytes the string-keyed
// recorder produced, so interning changed no metrics file.
func TestSnapshotTextPinned(t *testing.T) {
	var (
		zero = NewCounter("pin.zero")
		ops  = NewCounter("pin.ops")
		neg  = NewCounter("pin.neg")
		long = NewCounter("pin.a.much.longer.counter.name")
		_    = NewCounter("pin.never.bumped")
		revs = NewHist("pin.revs")
		one  = NewHist("pin.one")
		_    = NewHist("pin.never.observed")
		r    = New(2)
	)
	for i := 0; i < 3; i++ {
		r.Emit(time.Duration(i), KindZoneAlloc, "", int64(i), 0)
	}
	r.Add(zero, 0)
	r.Add(ops, 2)
	r.Add(ops, 3)
	r.Add(neg, -4)
	r.Add(long, 1)
	for _, v := range []float64{0.5, 1, 2, 3, 1000} {
		r.Observe(revs, v)
	}
	r.Observe(one, 7)
	const want = "events                         3 (1 dropped)\n" +
		"pin.a.much.longer.counter.name 1\n" +
		"pin.neg                        -4\n" +
		"pin.ops                        5\n" +
		"pin.zero                       0\n" +
		"pin.one                        n=1 mean=7.00 min=7.00 max=7.00 p50=7.00 p90=7.00 p99=7.00\n" +
		"pin.revs                       n=5 mean=201.30 min=0.50 max=1000.00 p50=4.00 p90=1000.00 p99=1000.00\n"
	if got := r.Snapshot().Text(); got != want {
		t.Errorf("snapshot text moved:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestNewCounterInterns: a name interns once, wherever it is interned, and
// a counter or histogram interned after a recorder was made still records.
func TestNewCounterInterns(t *testing.T) {
	if a, b := NewCounter("intern.same"), NewCounter("intern.same"); a != b {
		t.Errorf("one name interned twice: %d and %d", a, b)
	}
	if a, b := NewHist("intern.same.h"), NewHist("intern.same.h"); a != b {
		t.Errorf("one histogram name interned twice: %d and %d", a, b)
	}
	r := New(4)
	late, lateHist := NewCounter("intern.late"), NewHist("intern.late.h")
	r.Add(late, 7)
	r.Observe(lateHist, 3)
	if got := r.Counter("intern.late"); got != 7 {
		t.Errorf("late counter = %d, want 7", got)
	}
	if got := r.Counter("intern.nosuch"); got != 0 {
		t.Errorf("unknown counter = %d, want 0", got)
	}
	if m := r.Snapshot(); len(m.Histograms) != 1 || m.Histograms[0].Name != "intern.late.h" {
		t.Errorf("late histogram missing from snapshot: %+v", m.Histograms)
	}
}

// TestHotPathAllocatesNothing: a handle bump, a sample into an existing
// histogram, an event into a full ring and a flow allocation cost no heap
// object.
func TestHotPathAllocatesNothing(t *testing.T) {
	r := New(firstRing)
	for i := 0; i < firstRing; i++ {
		r.Emit(0, KindZoneAlloc, "", 0, 0)
	}
	r.Observe(hLat, 1)
	for name, f := range map[string]func(){
		"Add":      func() { r.Add(cTest, 1) },
		"Observe":  func() { r.Observe(hLat, 3) },
		"Emit":     func() { r.Emit(time.Second, KindDiskOp, "op", 1, 2) },
		"NextFlow": func() { r.NextFlow() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f times per call", name, n)
		}
	}
}

// TestRecordersOnSeveralGoroutines is the single-writer contract under the
// race detector: machines on worker goroutines each write their own
// recorder, intern names and read snapshots at once; only the name registry
// is shared.
func TestRecordersOnSeveralGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := New(16)
			for i := 0; i < 100; i++ {
				r.Add(NewCounter(fmt.Sprintf("concurrent.g%d.c%d", g, i%5)), 1)
				r.Observe(hLat, float64(i))
				r.Emit(time.Duration(i), KindZoneAlloc, "", int64(i), 0)
				r.NextFlow()
			}
			if got := r.Counter(fmt.Sprintf("concurrent.g%d.c0", g)); got != 20 {
				t.Errorf("goroutine %d: counter = %d, want 20", g, got)
			}
			if m := r.Snapshot(); len(m.Counters) != 5 || m.Events != 100 {
				t.Errorf("goroutine %d: snapshot %d counters, %d events; want 5 and 100", g, len(m.Counters), m.Events)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRecorderAdd(b *testing.B) {
	r := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(cTest, 1)
	}
}

func BenchmarkRecorderEmit(b *testing.B) {
	r := New(firstRing)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(time.Duration(i), KindDiskOp, "op", int64(i), 0)
	}
}
