package experiments

import (
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

// TestE15Determinism runs the shared determinism harness on the cluster at
// a reduced client count, a second scale beside TestDeterminism's full-size
// E15, so the replay claim is not tied to one load.
func TestE15Determinism(t *testing.T) {
	const clients = 6
	run := func(workers int, machine func(string) *trace.Recorder) (*Result, error) {
		return E15Cluster(clients, workers, E15WireSeed, machine)
	}
	if err := checkDeterminism("e15 (6 clients)", run, trace.DefaultEvents); err != nil {
		t.Fatal(err)
	}
}
