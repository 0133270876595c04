package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"altoos/internal/sim"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Emit(time.Second, KindDiskOp, "op", 1, 2)
	r.EmitSpan(0, time.Second, KindSeek, "seek", 0, 1)
	r.Add("c", 1)
	r.Observe("h", 3)
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
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace is not valid JSON: %s", buf.String())
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
	r.Add("disk.check.fail", 2)
	r.Add("disk.check.fail", 3)
	r.Add("zone.alloc", 1)
	for _, v := range []float64{0.5, 1, 2, 3, 1000} {
		r.Observe("disk.op.revs", v)
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

func TestChromeTraceShape(t *testing.T) {
	r := New(16)
	r.EmitSpan(40*time.Millisecond, 5*time.Millisecond, KindDiskOp, "check/read", 123, 0)
	r.Emit(45*time.Millisecond, KindCheckFail, "label", 123, 2)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// One lane-name metadata event per named lane + 2 real ones.
	if want := len(lanes) + 2; len(doc.TraceEvents) != want {
		t.Fatalf("got %d trace events, want %d", len(doc.TraceEvents), want)
	}
	span := doc.TraceEvents[len(lanes)]
	if span["ph"] != "X" || span["ts"].(float64) != 40000 || span["dur"].(float64) != 5000 {
		t.Errorf("span event wrong: %v", span)
	}
	inst := doc.TraceEvents[len(lanes)+1]
	if inst["ph"] != "i" || inst["cat"] != "disk" {
		t.Errorf("instant event wrong: %v", inst)
	}
}

// TestHistogramPercentiles pins the bucket-derived quantiles: each is the
// upper bound of the log₂ bucket where the cumulative count crosses the
// quantile, clamped to the observed extremes — integer math only, so two
// snapshots of the same samples agree to the byte.
func TestHistogramPercentiles(t *testing.T) {
	r := New(4)
	for i := 0; i < 50; i++ {
		r.Observe("lat", 1) // bucket lt=2
	}
	for i := 0; i < 40; i++ {
		r.Observe("lat", 4) // bucket lt=8
	}
	for i := 0; i < 10; i++ {
		r.Observe("lat", 100) // bucket lt=128, clamped to max
	}
	h := r.Snapshot().Histograms[0]
	if h.P50 != 2 || h.P90 != 8 || h.P99 != 100 {
		t.Errorf("p50/p90/p99 = %v/%v/%v, want 2/8/100", h.P50, h.P90, h.P99)
	}

	// A single sub-unit sample: every percentile clamps to the one value.
	r2 := New(4)
	r2.Observe("one", 0.5)
	if h := r2.Snapshot().Histograms[0]; h.P50 != 0.5 || h.P99 != 0.5 {
		t.Errorf("single-sample percentiles = %v/%v, want 0.5/0.5", h.P50, h.P99)
	}

	text := r.Snapshot().Text()
	for _, want := range []string{"p50=2.00", "p90=8.00", "p99=100.00"} {
		if !strings.Contains(text, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text)
		}
	}
	var jb bytes.Buffer
	if err := r.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"p50": 2`) {
		t.Errorf("JSON snapshot missing p50:\n%s", jb.String())
	}
}

// TestChromeTraceSelfDescribesEviction: a ring that wrapped must say so in
// its own export — a metadata instant carrying the dropped count — so a
// truncated timeline is never mistaken for a quiet machine.
func TestChromeTraceSelfDescribesEviction(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(time.Duration(i)*time.Millisecond, KindDiskOp, "op", int64(i), 0)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"ring-evicted"`, `"dropped":6`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export of a wrapped ring lacks %s:\n%s", want, buf.String())
		}
	}
	// And a ring that did not wrap stays silent about eviction.
	var quiet bytes.Buffer
	q := New(4)
	q.Emit(0, KindDiskOp, "op", 1, 0)
	if err := q.WriteChromeTrace(&quiet); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "ring-evicted") {
		t.Error("export of an unwrapped ring claims eviction")
	}
}

// TestExportDeterminism is the package-level contract: identical emission
// sequences yield byte-identical exports (cmd/altobench's
// TestTracesAreByteIdentical asserts the same end-to-end over whole
// experiments).
func TestExportDeterminism(t *testing.T) {
	build := func() *Recorder {
		r := New(64)
		for i := 0; i < 40; i++ {
			r.Emit(time.Duration(i)*time.Millisecond, Kind(i%int(numKinds)), "e", int64(i), int64(i*i))
			r.Add("counter.a", int64(i))
			r.Add("counter.b", 1)
			r.Observe("hist", float64(i))
		}
		return r
	}
	var t1, t2, m1, m2 bytes.Buffer
	a, b := build(), build()
	if err := a.WriteChromeTrace(&t1); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("identical recordings exported different trace bytes")
	}
	if err := a.Snapshot().WriteJSON(&m1); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&m2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Error("identical recordings exported different metrics bytes")
	}
}

func TestMetricsText(t *testing.T) {
	r := New(4)
	r.Add("zone.alloc", 3)
	r.Observe("ether.queue.depth", 2)
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
	r.Add("c", 1)
	r.Observe("h", 1)
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
