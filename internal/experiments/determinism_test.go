package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"altoos/internal/scope"
	"altoos/internal/trace"
)

// determinismWidths are the worker-pool widths every experiment runs at:
// repeated runs at one width and at eight, and every width against the
// first run.
var determinismWidths = []int{1, 1, 2, 4, 8, 8}

// TestDeterminism is the replay contract, the make determinism-check gate:
// every registered experiment runs at each width in determinismWidths, every
// simulated machine recording into its own scope.Fleet recorder, and each
// run must match the first exactly — every machine's events, every
// recorder's metrics snapshot, and the result's metrics.
func TestDeterminism(t *testing.T) {
	for _, r := range registry {
		t.Run(r.ID, func(t *testing.T) {
			if err := checkDeterminism(r.ID, r.Run, trace.DefaultEvents); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runImage is what a run must reproduce: each machine's events and metrics
// snapshot, machines sorted by name, and the result's metrics as sorted
// "name value" lines.
type runImage struct {
	label    string
	machines []machineImage
	metrics  []string
}

// A machine's events are what its ring still holds: the first is the
// machine's event number dropped in emission order, its lifetime sequence.
type machineImage struct {
	name     string
	events   []trace.Event
	dropped  int
	snapshot string
}

// checkDeterminism runs one experiment at every width in determinismWidths,
// each machine recording into a ring of the given capacity, and describes
// the first divergence from the first run, if any.
func checkDeterminism(id string, run func(int, func(string) *trace.Recorder) (*Result, error), events int) error {
	var base *runImage
	for i, workers := range determinismWidths {
		img, err := imageOf(run, workers, events)
		if err != nil {
			return fmt.Errorf("%s run %d (workers=%d): %w", id, i+1, workers, err)
		}
		img.label = fmt.Sprintf("run %d (workers=%d)", i+1, workers)
		if base == nil {
			if len(img.machines) == 0 {
				return fmt.Errorf("%s %s: no machine asked for a recorder; tracing is not wired in", id, img.label)
			}
			base = img
			continue
		}
		if d := divergence(base, img); d != "" {
			return fmt.Errorf("%s: %s differs from %s: %s", id, img.label, base.label, d)
		}
	}
	return nil
}

// imageOf runs the experiment once with one recorder per machine.
func imageOf(run func(int, func(string) *trace.Recorder) (*Result, error), workers, events int) (*runImage, error) {
	fl := scope.NewFleet(events)
	res, err := run(workers, fl.Machine)
	if err != nil {
		return nil, err
	}
	img := &runImage{}
	for _, m := range fl.Machines() {
		snap := m.Rec.Snapshot()
		img.machines = append(img.machines, machineImage{name: m.Name, events: m.Rec.Events(), dropped: int(snap.Dropped), snapshot: snap.Text()})
	}
	sort.Slice(img.machines, func(i, j int) bool { return img.machines[i].name < img.machines[j].name })
	for k, v := range res.Metrics {
		img.metrics = append(img.metrics, fmt.Sprintf("%s %v", k, v))
	}
	sort.Strings(img.metrics)
	return img, nil
}

// divergence names the first place got differs from base — machine set,
// then each machine's events, then its snapshot, then the result metrics —
// with both versions of the first differing line and the lines before it.
// It returns "" when the runs match.
func divergence(base, got *runImage) string {
	names := func(img *runImage) []string {
		out := make([]string, len(img.machines))
		for i, m := range img.machines {
			out[i] = m.name
		}
		return out
	}
	if bn, gn := names(base), names(got); !slices.Equal(bn, gn) {
		return fmt.Sprintf("machines differ:\n  %s: %s\n  %s: %s", base.label, strings.Join(bn, " "), got.label, strings.Join(gn, " "))
	}
	for i, bm := range base.machines {
		gm := got.machines[i]
		if bm.dropped != gm.dropped || !slices.Equal(bm.events, gm.events) {
			return firstDiff(base.label, got.label, fmt.Sprintf("machine %q, event", bm.name),
				numbered{bm.dropped, eventLines(bm.events)}, numbered{gm.dropped, eventLines(gm.events)})
		}
		if bm.snapshot != gm.snapshot {
			return firstDiff(base.label, got.label, fmt.Sprintf("machine %q, snapshot line", bm.name),
				numbered{lines: lines(bm.snapshot)}, numbered{lines: lines(gm.snapshot)})
		}
	}
	return firstDiff(base.label, got.label, "result metric", numbered{lines: base.metrics}, numbered{lines: got.metrics})
}

// contextLines is how many lines before the first difference a report
// shows.
const contextLines = 3

// numbered is a run of lines whose first is line number from: a machine's
// events start at its lifetime sequence number, since its ring may have
// evicted the ones before.
type numbered struct {
	from  int
	lines []string
}

// end is the number one past the last line.
func (n numbered) end() int { return n.from + len(n.lines) }

// at renders line i, or says why the run has none.
func (n numbered) at(i int) string {
	switch {
	case i < n.from:
		return fmt.Sprintf("(evicted; the ring starts at %d)", n.from)
	case i >= n.end():
		return fmt.Sprintf("(ends after %d)", n.end())
	}
	return n.lines[i-n.from]
}

// firstDiff reports the first line number at which a and b differ, "" if
// none: where, the lines before it, and each run's version of the line.
// Lines are matched by number, so two rings that evicted different counts
// are still compared event for event; when the lines both runs hold agree,
// the difference is the first line only one of them holds.
func firstDiff(aLabel, bLabel, where string, a, b numbered) string {
	i := max(a.from, b.from)
	for i < a.end() && i < b.end() && a.at(i) == b.at(i) {
		i++
	}
	switch {
	case i < a.end() && i < b.end():
		// Both runs hold line i, and it differs.
	case a.from != b.from:
		i = min(a.from, b.from) // one run holds lines the other evicted
	case i == a.end() && i == b.end():
		return ""
	}
	var w strings.Builder
	fmt.Fprintf(&w, "%s %d\n", where, i)
	for j := max(a.from, i-contextLines); j < i; j++ {
		fmt.Fprintf(&w, "  %6d   %s\n", j, a.at(j))
	}
	fmt.Fprintf(&w, "  %s: %s\n  %s: %s", aLabel, a.at(i), bLabel, b.at(i))
	return w.String()
}

// eventLines renders events one per line, every field shown.
func eventLines(evs []trace.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = fmt.Sprintf("t=%d dur=%d %s/%s %q a0=%d a1=%d flow=%d",
			ev.T, ev.Dur, ev.Kind.Category(), ev.Kind, ev.Name, ev.A0, ev.A1, ev.Flow)
	}
	return out
}

func lines(s string) []string { return strings.Split(s, "\n") }

// TestDeterminismReportsFirstDivergence feeds the harness a runner whose
// third run changes one event's argument, and checks that the failure names
// the experiment, both runs, the machine and the event, with both versions
// of the event and the events before it.
func TestDeterminismReportsFirstDivergence(t *testing.T) {
	runs := 0
	fake := func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
		runs++
		for _, name := range []string{"steady", "wobbly"} {
			rec := machine(name)
			for i := int64(0); i < 10; i++ {
				a1 := i
				if name == "wobbly" && i == 6 && runs == 3 {
					a1 = 99
				}
				rec.Emit(time.Duration(i)*time.Millisecond, trace.KindDiskOp, "probe", i, a1)
			}
		}
		return &Result{ID: "fake", Metrics: map[string]float64{"ops": 20}}, nil
	}
	err := checkDeterminism("fake", fake, trace.DefaultEvents)
	if err == nil {
		t.Fatal("a run whose events changed passed the determinism check")
	}
	msg := err.Error()
	for _, want := range []string{
		"fake: run 3 (workers=2) differs from run 1 (workers=1)",
		`machine "wobbly", event 6`,
		`run 1 (workers=1): t=6000000 dur=0 disk/op "probe" a0=6 a1=6 flow=0`,
		`run 3 (workers=2): t=6000000 dur=0 disk/op "probe" a0=6 a1=99 flow=0`,
		"a0=3 a1=3", "a0=4 a1=4", "a0=5 a1=5",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "a0=2 a1=2") {
		t.Errorf("report shows more than %d lines of context:\n%s", contextLines, msg)
	}
	if runs != 3 {
		t.Errorf("harness ran %d times, want it to stop at the first divergent run (3)", runs)
	}
}

// TestDeterminismNamesEventsBySequence: with a ring that evicts, the report
// names the differing event by the machine's lifetime sequence number — the
// count of events it evicted plus the ring index — not by ring position,
// which shifts with every eviction. Runs that evicted different counts are
// still compared event for event.
func TestDeterminismNamesEventsBySequence(t *testing.T) {
	const ring = 4
	check := func(events func(run int) int, changeAt func(run int) int) string {
		runs := 0
		fake := func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
			runs++
			rec := machine("m")
			for i := int64(0); i < int64(events(runs)); i++ {
				a1 := i
				if int(i) == changeAt(runs) {
					a1 = 99
				}
				rec.Emit(time.Duration(i)*time.Millisecond, trace.KindDiskOp, "probe", i, a1)
			}
			return &Result{ID: "fake"}, nil
		}
		err := checkDeterminism("fake", fake, ring)
		if err == nil {
			t.Fatal("a run whose events changed passed the determinism check")
		}
		return err.Error()
	}
	never := func(int) int { return -1 }

	// Ten events through a four-slot ring: the ring holds events 6..9, and
	// a change to event 8 — ring index 2 — is reported as event 8.
	msg := check(func(int) int { return 10 }, func(run int) int {
		if run == 2 {
			return 8
		}
		return -1
	})
	for _, want := range []string{
		`machine "m", event 8`,
		`       6   t=6000000 dur=0 disk/op "probe" a0=6 a1=6 flow=0`,
		`       7   t=7000000`,
		`run 1 (workers=1): t=8000000 dur=0 disk/op "probe" a0=8 a1=8 flow=0`,
		`run 2 (workers=1): t=8000000 dur=0 disk/op "probe" a0=8 a1=99 flow=0`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "event 2") {
		t.Errorf("report names the ring position:\n%s", msg)
	}

	// One more event in the second run: both rings hold events 7..9 alike,
	// and the report names the event only one run holds — the first run's
	// event 6, which the second evicted.
	msg = check(func(run int) int { return 10 + run - 1 }, never)
	for _, want := range []string{
		`machine "m", event 6`,
		`run 1 (workers=1): t=6000000`,
		`run 2 (workers=1): (evicted; the ring starts at 7)`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
}
