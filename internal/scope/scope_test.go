package scope

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"altoos/internal/trace"
)

func TestFleetAssignsDistinctFlowDomains(t *testing.T) {
	f := NewFleet(64)
	a := f.Machine("a")
	b := f.Machine("b")
	if a == b {
		t.Fatal("distinct machines share a recorder")
	}
	if f.Machine("a") != a {
		t.Fatal("Machine is not idempotent")
	}
	fa, fb := a.NextFlow(), b.NextFlow()
	if fa == fb {
		t.Fatalf("flows collide across machines: %d", fa)
	}
	if fa == 0 || fb == 0 {
		t.Fatalf("allocated the no-flow id: a=%d b=%d", fa, fb)
	}
	ms := f.Machines()
	if len(ms) != 2 || ms[0].Name != "a" || ms[1].Name != "b" {
		t.Fatalf("Machines() not in creation order: %+v", ms)
	}
}

// synthFleet builds a reproducible two-machine recording with flows crossing
// the machines.
func synthFleet() []MachineTrace {
	f := NewFleet(256)
	a, b := f.Machine("alpha"), f.Machine("beta")
	flow := a.NextFlow()
	a.EmitSpanFlow(0, 10*time.Millisecond, trace.KindFSSession, "client", 1, 100, flow)
	a.EmitFlow(time.Millisecond, trace.KindEtherSend, "", 2, 50, flow)
	b.EmitFlow(2*time.Millisecond, trace.KindEtherRecv, "", 1, 50, flow)
	b.EmitSpanFlow(3*time.Millisecond, 4*time.Millisecond, trace.KindFSRequest, "store", 1, 100, flow)
	b.EmitSpan(4*time.Millisecond, time.Millisecond, trace.KindDiskOp, "op", 7, 0)
	b.Emit(9*time.Millisecond, trace.KindCheckFail, "label", 7, 1)
	return f.Machines()
}

func render(t *testing.T, ms []MachineTrace, workers int) (string, string, string) {
	t.Helper()
	m := Merge(ms, workers)
	var tb, cb, pb bytes.Buffer
	if err := m.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	if err := WriteCollapsed(&cb, m.MachineProfiles()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTop(&pb, m.MachineProfiles(), 10); err != nil {
		t.Fatal(err)
	}
	return tb.String(), cb.String(), pb.String()
}

func TestMergeOrderAndWorkerIndependence(t *testing.T) {
	ms := synthFleet()
	rev := []MachineTrace{ms[1], ms[0]}
	t1, c1, p1 := render(t, ms, 1)
	t2, c2, p2 := render(t, rev, 1)
	t3, c3, p3 := render(t, ms, 8)
	if t1 != t2 || t1 != t3 {
		t.Error("merged trace depends on input order or worker count")
	}
	if c1 != c2 || c1 != c3 {
		t.Error("collapsed profile depends on input order or worker count")
	}
	if p1 != p2 || p1 != p3 {
		t.Error("top table depends on input order or worker count")
	}
	// And across identical re-recordings.
	t4, _, _ := render(t, synthFleet(), 4)
	if t1 != t4 {
		t.Error("identical recordings merged to different bytes")
	}
}

func TestMergedChromeShape(t *testing.T) {
	tj, _, _ := render(t, synthFleet(), 2)
	for _, want := range []string{
		`"name":"process_name"`, `"name":"alpha"`, `"name":"beta"`,
		`"ph":"s"`, `"ph":"t"`, `"ph":"f"`, `"bp":"e"`,
		`"flow":`,
	} {
		if !strings.Contains(tj, want) {
			t.Errorf("merged trace lacks %s", want)
		}
	}
	// alpha sorts before beta: pids are assigned in name order.
	if strings.Index(tj, `"name":"alpha"`) > strings.Index(tj, `"name":"beta"`) {
		t.Error("machines not in name order")
	}
	// The lone-event flow rule: a flow seen once draws no arrows.
	f := NewFleet(16)
	f.Machine("solo").EmitSpanFlow(0, time.Millisecond, trace.KindFSSession, "", 1, 1, 99)
	only, _, _ := render(t, f.Machines(), 1)
	if strings.Contains(only, `"ph":"s"`) {
		t.Error("single-event flow drew an arrow")
	}
}

func TestMergeReportsRingEviction(t *testing.T) {
	f := NewFleet(4)
	r := f.Machine("tiny")
	for i := 0; i < 10; i++ {
		r.Emit(time.Duration(i)*time.Millisecond, trace.KindDiskOp, "op", int64(i), 0)
	}
	tj, _, _ := render(t, f.Machines(), 1)
	if !strings.Contains(tj, `"name":"ring-evicted"`) || !strings.Contains(tj, `"dropped":6`) {
		t.Errorf("merged trace does not self-describe eviction:\n%s", tj)
	}
}

// TestChromeTraceSelfDescribesEviction: a one-machine export says whether
// its ring wrapped — a metadata instant carrying the dropped count — so a
// truncated timeline is never mistaken for a quiet machine, and a ring that
// did not wrap stays silent about eviction.
func TestChromeTraceSelfDescribesEviction(t *testing.T) {
	r := trace.New(4)
	for i := 0; i < 10; i++ {
		r.Emit(time.Duration(i)*time.Millisecond, trace.KindDiskOp, "op", int64(i), 0)
	}
	tj, _, _ := render(t, []MachineTrace{{Name: "m", Rec: r}}, 1)
	for _, want := range []string{`"name":"ring-evicted"`, `"dropped":6`} {
		if !strings.Contains(tj, want) {
			t.Errorf("export of a wrapped ring lacks %s:\n%s", want, tj)
		}
	}
	q := trace.New(4)
	q.Emit(0, trace.KindDiskOp, "op", 1, 0)
	if tj, _, _ := render(t, []MachineTrace{{Name: "m", Rec: q}}, 1); strings.Contains(tj, "ring-evicted") {
		t.Errorf("export of an unwrapped ring claims eviction:\n%s", tj)
	}
}

// TestChromeTraceShape pins one machine's export: its process name, one
// thread name per lane, then its events in order — a span as ph X with its
// duration, an instant as ph i, both in microseconds of simulated time.
func TestChromeTraceShape(t *testing.T) {
	f := NewFleet(16)
	r := f.Machine("m")
	r.EmitSpan(40*time.Millisecond, 5*time.Millisecond, trace.KindDiskOp, "check/read", 123, 0)
	r.Emit(45*time.Millisecond, trace.KindCheckFail, "label", 123, 2)
	tj, _, _ := render(t, f.Machines(), 1)
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tj), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, tj)
	}
	// process_name, one thread_name per lane, and the 2 real events.
	if want := 1 + len(lanes) + 2; len(doc.TraceEvents) != want {
		t.Fatalf("got %d trace events, want %d", len(doc.TraceEvents), want)
	}
	span := doc.TraceEvents[1+len(lanes)]
	if span["ph"] != "X" || span["ts"].(float64) != 40000 || span["dur"].(float64) != 5000 || span["tid"].(float64) != 1 {
		t.Errorf("span event wrong: %v", span)
	}
	inst := doc.TraceEvents[2+len(lanes)]
	if inst["ph"] != "i" || inst["cat"] != "disk" {
		t.Errorf("instant event wrong: %v", inst)
	}
}

// TestNilRecorderMergesToValidJSON: a machine whose recorder is nil (tracing
// off) still exports a loadable document.
func TestNilRecorderMergesToValidJSON(t *testing.T) {
	tj, _, _ := render(t, []MachineTrace{{Name: "off"}}, 1)
	if !json.Valid([]byte(tj)) {
		t.Fatalf("empty trace is not valid JSON: %s", tj)
	}
}

// TestExportDeterminism: identical emission sequences yield byte-identical
// exports, trace and metrics snapshot alike (internal/experiments'
// TestDeterminism and TestGolden assert the same over whole experiments).
func TestExportDeterminism(t *testing.T) {
	kinds := []trace.Kind{trace.KindSeek, trace.KindDiskOp, trace.KindCheckFail, trace.KindEtherSend, trace.KindFSRequest}
	ca, cb, h := trace.NewCounter("counter.a"), trace.NewCounter("counter.b"), trace.NewHist("hist")
	build := func() []MachineTrace {
		f := NewFleet(64)
		r := f.Machine("m")
		for i := 0; i < 40; i++ {
			r.Emit(time.Duration(i)*time.Millisecond, kinds[i%len(kinds)], "e", int64(i), int64(i*i))
			r.Add(ca, int64(i))
			r.Add(cb, 1)
			r.Observe(h, float64(i))
		}
		return f.Machines()
	}
	a, b := build(), build()
	ta, _, _ := render(t, a, 1)
	tb, _, _ := render(t, b, 1)
	if ta != tb {
		t.Error("identical recordings exported different trace bytes")
	}
	if a[0].Rec.Snapshot().Text() != b[0].Rec.Snapshot().Text() {
		t.Error("identical recordings exported different metrics bytes")
	}
}

func TestProfileFold(t *testing.T) {
	const ms = time.Millisecond
	f := NewFleet(64)
	r := f.Machine("m")
	// A request span containing a disk op containing a rotate, plus a
	// disjoint second request and an instant that must not profile.
	r.EmitSpan(0, 10*ms, trace.KindFSRequest, "store", 1, 0)
	r.EmitSpan(2*ms, 4*ms, trace.KindDiskOp, "op", 1, 0)
	r.EmitSpan(3*ms, 1*ms, trace.KindRotate, "rotate", 1, 0)
	r.EmitSpan(20*ms, 5*ms, trace.KindFSRequest, "store", 2, 0)
	r.Emit(21*ms, trace.KindCheckFail, "label", 1, 1)
	p := Merge(f.Machines(), 1).MachineProfiles()[0]

	if p.Spans != 4 {
		t.Fatalf("folded %d spans, want 4", p.Spans)
	}
	if want := 15 * ms; p.Covered != want {
		t.Errorf("covered = %v, want %v", p.Covered, want)
	}
	if want := 15 * ms; p.Total != want {
		t.Errorf("total = %v, want %v", p.Total, want)
	}
	if len(p.Roots) != 1 {
		t.Fatalf("got %d roots, want 1: %+v", len(p.Roots), p.Roots)
	}
	req := p.Roots[0]
	if req.Name != "fileserver/store" || req.Count != 2 || req.Cum != 15*ms || req.Self != 11*ms {
		t.Errorf("request node wrong: %+v", req)
	}
	if len(req.Children) != 1 {
		t.Fatalf("request children: %+v", req.Children)
	}
	op := req.Children[0]
	if op.Name != "disk/op" || op.Cum != 4*ms || op.Self != 3*ms {
		t.Errorf("disk node wrong: %+v", op)
	}
	if len(op.Children) != 1 || op.Children[0].Name != "disk/rotate" || op.Children[0].Self != 1*ms {
		t.Errorf("rotate node wrong: %+v", op.Children)
	}

	// Self sums to the root total: nothing double-counted, nothing lost.
	var selfSum time.Duration
	walk("", p.Roots, func(_ string, n *ProfileNode) { selfSum += n.Self })
	if selfSum != p.Total {
		t.Errorf("sum of self %v != total %v", selfSum, p.Total)
	}
}

func TestProfileRecursionCollapse(t *testing.T) {
	const ms = time.Millisecond
	f := NewFleet(64)
	r := f.Machine("m")
	// Three concurrent sessions enclosing one another, as a loaded server
	// records them: one node, counted three times, no self-nesting chain.
	r.EmitSpan(0, 30*ms, trace.KindFSSession, "", 1, 0)
	r.EmitSpan(1*ms, 28*ms, trace.KindFSSession, "", 2, 0)
	r.EmitSpan(2*ms, 26*ms, trace.KindFSSession, "", 3, 0)
	r.EmitSpan(5*ms, 2*ms, trace.KindFSRequest, "fetch", 3, 0)
	p := Merge(f.Machines(), 1).MachineProfiles()[0]
	if len(p.Roots) != 1 {
		t.Fatalf("roots: %+v", p.Roots)
	}
	sess := p.Roots[0]
	if sess.Name != "fileserver/session" || sess.Count != 3 || sess.Cum != 30*ms {
		t.Errorf("collapsed session node wrong: %+v", sess)
	}
	if len(sess.Children) != 1 || sess.Children[0].Name != "fileserver/fetch" {
		t.Fatalf("children under collapsed node wrong: %+v", sess.Children)
	}
	if sess.Self != 28*ms {
		t.Errorf("session self = %v, want 28ms", sess.Self)
	}
}

func TestCollapsedOutput(t *testing.T) {
	_, collapsed, _ := render(t, synthFleet(), 1)
	lines := strings.Split(strings.TrimSuffix(collapsed, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Errorf("collapsed lines not strictly sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "beta;fileserver/store;disk/op ") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected nested beta stack in:\n%s", collapsed)
	}
}
