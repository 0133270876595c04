package main

import "testing"

// TestSelfCheck exercises the cluster-check gate at a reduced client count:
// five full two-phase runs (store sessions, rot, audit, heal) whose event
// streams and metrics must be byte-identical across worker widths 1, 2 and 8.
func TestSelfCheck(t *testing.T) {
	if err := selfCheck(4, 1<<14); err != nil {
		t.Fatal(err)
	}
}
