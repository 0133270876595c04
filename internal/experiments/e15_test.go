package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"altoos/internal/trace"
)

// TestE15ClusterAudit runs the cluster experiment at a reduced client count
// and checks the headline acceptance: zero files lost, zero bytes corrupted,
// every manufactured divergence detected and healed within a few rounds.
func TestE15ClusterAudit(t *testing.T) {
	r, err := E15Cluster(8, 1, E15WireSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(t, r, "files_lost", 0, 0)
	check(t, r, "bytes_corrupted", 0, 0)
	check(t, r, "machines", 20, 20)
	if r.Metrics["divergence_detected"] < 1 {
		t.Error("rot and skipped overwrites produced no detected divergence")
	}
	if r.Metrics["heals"] < 1 {
		t.Error("divergence was detected but nothing healed")
	}
	if rounds := r.Metrics["audit_rounds_to_heal"]; rounds < 1 || rounds > 10 {
		t.Errorf("audit_rounds_to_heal = %v, want within [1, 10]", rounds)
	}
	if r.Metrics["retransmits"] < 1 {
		t.Error("a wire losing 10% of its packets produced no retransmissions")
	}
}

// e15Snapshot runs the cluster fleet with per-machine recorders and flattens
// every machine's full event stream plus the Result metrics into one string.
func e15Snapshot(t *testing.T, clients, workers int) string {
	t.Helper()
	names := []string{}
	recs := map[string]*trace.Recorder{}
	r, err := E15Cluster(clients, workers, E15WireSeed, func(name string) *trace.Recorder {
		rec := trace.New(1 << 14)
		names = append(names, name)
		recs[name] = rec
		return rec
	})
	if err != nil {
		t.Fatalf("E15 (workers=%d): %v", workers, err)
	}
	var b strings.Builder
	sort.Strings(names)
	for _, name := range names {
		rec := recs[name]
		fmt.Fprintf(&b, "== %s events=%d\n", name, rec.Len())
		for _, ev := range rec.Events() {
			fmt.Fprintf(&b, "%d %d %d %s %d %d %d\n", ev.T, ev.Dur, ev.Kind, ev.Name, ev.A0, ev.A1, ev.Flow)
		}
	}
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "metric %s %v\n", k, r.Metrics[k])
	}
	return b.String()
}

// TestE15Determinism pins the cluster's replay claim: the merged per-machine
// trace — every audit round, every heal, every packet of a two-phase run —
// and every metric are byte-identical across repeated runs and widths.
func TestE15Determinism(t *testing.T) {
	const clients = 6
	base := e15Snapshot(t, clients, 1)
	if !strings.Contains(base, "== shard0/r0") || len(base) < 10_000 {
		t.Fatalf("baseline snapshot implausibly small (%d bytes) — tracing is not wired in", len(base))
	}
	for _, workers := range []int{1, 8} {
		for run := 0; run < 2; run++ {
			got := e15Snapshot(t, clients, workers)
			if got == base {
				continue
			}
			bl, gl := strings.Split(base, "\n"), strings.Split(got, "\n")
			for i := 0; i < len(bl) && i < len(gl); i++ {
				if bl[i] != gl[i] {
					t.Fatalf("workers=%d run=%d diverged at line %d:\nbase: %s\ngot:  %s", workers, run, i, bl[i], gl[i])
				}
			}
			t.Fatalf("workers=%d run=%d diverged in length: %d vs %d lines", workers, run, len(bl), len(gl))
		}
	}
}
