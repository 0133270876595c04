package experiments

import "testing"

func TestE14FleetFanIn(t *testing.T) {
	r := mustRun(t, "e14")
	// The run errors internally on any corrupted journal page or network
	// payload; the metrics guard the shape. A hundred clients against one
	// disk-bound server queue up minutes of simulated time, and the lossy
	// wire plus the queueing make retransmissions unavoidable.
	check(t, r, "machines", 101, 101)
	check(t, r, "sim_seconds", 10, 1000)
	check(t, r, "scheduler_steps", 1000, 10_000_000)
	check(t, r, "bytes_moved", 100_000, 200_000)
	if r.Metrics["retransmits"] < 1 {
		t.Error("a lossy wire and a backlogged server produced no retransmissions")
	}
}
