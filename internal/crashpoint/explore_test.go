package crashpoint

import (
	"bytes"
	"strings"
	"testing"

	"altoos/internal/trace"
)

// mustLookup fetches a registered workload or fails.
func mustLookup(t *testing.T, name string) Workload {
	t.Helper()
	w, ok := Lookup(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	return w
}

// TestJournaledInsertFullSweep is the PR's headline property: crash the
// journaled directory path after every single write action — clean and torn
// — and every crash must end in a Scavenger repair that fsck certifies.
func TestJournaledInsertFullSweep(t *testing.T) {
	res, err := Explore(mustLookup(t, "journaled-insert"), Options{Workers: 4, Torn: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("window counted no writes")
	}
	if len(res.Points) != int(res.Writes) {
		t.Errorf("explored %d points, want every one of %d writes", len(res.Points), res.Writes)
	}
	if want := 2 * len(res.Points); len(res.Outcomes) != want {
		t.Errorf("outcomes = %d, want %d (clean + torn per point)", len(res.Outcomes), want)
	}
	for _, o := range res.Outcomes {
		if !o.Consistent {
			t.Errorf("point %d (torn=%v) left the pack inconsistent:\n  %s",
				o.Point, o.Torn, strings.Join(o.Violations, "\n  "))
		}
		if o.CrashAt == 0 {
			t.Errorf("point %d (torn=%v): crash never fired", o.Point, o.Torn)
		}
	}
	if !res.Consistent() {
		t.Errorf("Clean = %d of %d", res.Clean, len(res.Outcomes))
	}
}

// TestSweepIsByteIdenticalAcrossWorkerCounts pins the ordered-merge claim:
// the JSON report is the same bytes at -workers 1 and -workers 8.
func TestSweepIsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	w := mustLookup(t, "dir-insert")
	run := func(workers int) []byte {
		res, err := Explore(w, Options{Points: 12, Workers: workers, Torn: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	eight := run(8)
	if !bytes.Equal(one, eight) {
		t.Errorf("reports differ between 1 and 8 workers:\n-- 1 --\n%s\n-- 8 --\n%s", one, eight)
	}
	// And a repeat at the same width is identical too: replayable, not
	// merely order-insensitive.
	if again := run(8); !bytes.Equal(eight, again) {
		t.Error("two 8-worker sweeps of the same workload differ")
	}
}

// TestEveryWorkloadRecoversAtSampledPoints sweeps a sampled crash schedule
// over every registered workload, torn writes included.
func TestEveryWorkloadRecoversAtSampledPoints(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Explore(w, Options{Points: 6, Workers: 4, Torn: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range res.Outcomes {
				if !o.Consistent {
					t.Errorf("point %d (torn=%v):\n  %s",
						o.Point, o.Torn, strings.Join(o.Violations, "\n  "))
				}
			}
		})
	}
}

// TestExploreEmitsTrace checks the sweep shows up in the flight recorder:
// one span per run, counters summed over the schedule.
func TestExploreEmitsTrace(t *testing.T) {
	rec := trace.New(4096)
	res, err := Explore(mustLookup(t, "dir-insert"), Options{Points: 4, Workers: 2, Torn: true, Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindCrashExplore {
			spans++
		}
	}
	if spans != len(res.Outcomes) {
		t.Errorf("KindCrashExplore spans = %d, want %d", spans, len(res.Outcomes))
	}
	if got := rec.Counter("crashpoint.runs"); got != int64(len(res.Outcomes)) {
		t.Errorf("crashpoint.runs = %d, want %d", got, len(res.Outcomes))
	}
	if got := rec.Counter("crashpoint.points"); got != int64(len(res.Points)) {
		t.Errorf("crashpoint.points = %d, want %d", got, len(res.Points))
	}
	if got := rec.Counter("crashpoint.violations"); got != 0 {
		t.Errorf("crashpoint.violations = %d, want 0 on a clean sweep", got)
	}
}

func TestSamplePoints(t *testing.T) {
	cases := []struct {
		n    int64
		k    int
		want []int
	}{
		{5, 0, []int{1, 2, 3, 4, 5}}, // k<=0: every point
		{5, 9, []int{1, 2, 3, 4, 5}}, // k>=n: every point
		{100, 1, []int{50}},          // single sample: the middle
		{100, 2, []int{1, 100}},      // endpoints always included
		{10, 4, []int{1, 4, 7, 10}},  // even spread
		{3, 3, []int{1, 2, 3}},       // exact
	}
	for _, c := range cases {
		got := samplePoints(c.n, c.k)
		if len(got) != len(c.want) {
			t.Errorf("samplePoints(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("samplePoints(%d, %d) = %v, want %v", c.n, c.k, got, c.want)
				break
			}
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) < 5 {
		t.Fatalf("only %d workloads registered", len(ws))
	}
	seen := make(map[string]bool)
	for _, w := range ws {
		if w.Name == "" || w.Desc == "" || w.Build == nil {
			t.Errorf("workload %+v incomplete", w.Name)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if _, ok := Lookup(w.Name); !ok {
			t.Errorf("Lookup(%q) failed for a registered workload", w.Name)
		}
	}
	if _, ok := Lookup("no-such-workload"); ok {
		t.Error("Lookup invented a workload")
	}
}

// TestClusterStoreSweep is the cluster workload's own certification: kill a
// replica at crash points across the whole replicated store window — torn
// writes included — and every run must end with fsck clean on the victim's
// pack AND the rebooted shard group re-audited back to byte-identical copies
// (the Rig.Verify hook appends any convergence failure as a violation).
func TestClusterStoreSweep(t *testing.T) {
	res, err := Explore(mustLookup(t, "cluster-store"), Options{Points: 10, Workers: 4, Torn: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatal("window counted no writes on the victim")
	}
	for _, o := range res.Outcomes {
		if !o.Consistent {
			t.Errorf("point %d (torn=%v):\n  %s",
				o.Point, o.Torn, strings.Join(o.Violations, "\n  "))
		}
	}
	if !res.Consistent() {
		t.Errorf("Clean = %d of %d", res.Clean, len(res.Outcomes))
	}
}
