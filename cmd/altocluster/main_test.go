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

// TestSweep exercises the cluster-seeds gate at a reduced client count over a
// few wire seeds, and the range syntax it takes.
func TestSweep(t *testing.T) {
	if err := sweep(4, 0, 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in     string
		lo, hi uint64
		ok     bool
	}{
		{"0-199", 0, 199, true},
		{"15", 15, 15, true},
		{"5-3", 0, 0, false},
		{"-3", 0, 0, false},
		{"x", 0, 0, false},
	} {
		lo, hi, err := parseRange(tc.in)
		if (err == nil) != tc.ok || lo != tc.lo || hi != tc.hi {
			t.Errorf("parseRange(%q) = %d, %d, %v", tc.in, lo, hi, err)
		}
	}
}
