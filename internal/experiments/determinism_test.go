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
			if err := checkDeterminism(r.ID, r.Run); err != nil {
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

type machineImage struct {
	name     string
	events   []trace.Event
	snapshot string
}

// checkDeterminism runs one experiment at every width in determinismWidths
// and describes the first divergence from the first run, if any.
func checkDeterminism(id string, run func(int, func(string) *trace.Recorder) (*Result, error)) error {
	var base *runImage
	for i, workers := range determinismWidths {
		img, err := imageOf(run, workers)
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
func imageOf(run func(int, func(string) *trace.Recorder) (*Result, error), workers int) (*runImage, error) {
	fl := scope.NewFleet(trace.DefaultEvents)
	res, err := run(workers, fl.Machine)
	if err != nil {
		return nil, err
	}
	img := &runImage{}
	for _, m := range fl.Machines() {
		img.machines = append(img.machines, machineImage{name: m.Name, events: m.Rec.Events(), snapshot: m.Rec.Snapshot().Text()})
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
		if !slices.Equal(bm.events, gm.events) {
			return firstDiff(base.label, got.label, fmt.Sprintf("machine %q, event", bm.name), eventLines(bm.events), eventLines(gm.events))
		}
		if bm.snapshot != gm.snapshot {
			return firstDiff(base.label, got.label, fmt.Sprintf("machine %q, snapshot line", bm.name), lines(bm.snapshot), lines(gm.snapshot))
		}
	}
	return firstDiff(base.label, got.label, "result metric", base.metrics, got.metrics)
}

// contextLines is how many lines before the first difference a report
// shows.
const contextLines = 3

// firstDiff reports the first index at which a and b differ, "" if none:
// where, the lines before it, and each run's version of the line.
func firstDiff(aLabel, bLabel, where string, a, b []string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		return ""
	}
	at := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return fmt.Sprintf("(ends after %d)", len(s))
	}
	var w strings.Builder
	fmt.Fprintf(&w, "%s %d\n", where, i)
	for j := max(0, i-contextLines); j < i; j++ {
		fmt.Fprintf(&w, "  %6d   %s\n", j, a[j])
	}
	fmt.Fprintf(&w, "  %s: %s\n  %s: %s", aLabel, at(a), bLabel, at(b))
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
	err := checkDeterminism("fake", fake)
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
