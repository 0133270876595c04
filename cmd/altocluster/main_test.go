package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestSelfCheck holds the tool to its -workers claim at a reduced client
// count: the table altocluster prints at widths 1, 2 and 8 differs only in
// the width it names.
func TestSelfCheck(t *testing.T) {
	var base string
	for _, workers := range []int{1, 2, 8} {
		got, err := report(4, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		width := fmt.Sprintf("%d-worker", workers)
		if !strings.Contains(got, width) {
			t.Fatalf("workers=%d: table does not name its width:\n%s", workers, got)
		}
		got = strings.ReplaceAll(got, width, "N-worker")
		if base == "" {
			base = got
		} else if got != base {
			t.Fatalf("workers=1 and workers=%d print different tables:\n%s\n---\n%s", workers, base, got)
		}
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
