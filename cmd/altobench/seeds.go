// The cluster-seeds gate (altobench -seeds, make cluster-seeds): E15's claim
// must not rest on its published wire seed.

package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"

	"altoos/internal/experiments"
)

// parseRange reads "lo-hi" (or a single seed) as an inclusive range.
func parseRange(s string) (lo, hi uint64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseUint(a, 10, 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseUint(b, 10, 64); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("empty range %q", s)
	}
	return lo, hi, nil
}

// sweep is the cluster-seeds gate: the full E15 on every wire seed in
// [lo, hi] at workers 1 and 2. It reports every failing seed.
func sweep(clients int, lo, hi uint64) error {
	var failed []string
	for seed := lo; seed <= hi; seed++ {
		if err := sweepSeed(clients, seed); err != nil {
			log.Printf("seed %d: %v", seed, err)
			failed = append(failed, strconv.FormatUint(seed, 10))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("cluster-seeds: %d of %d wire seeds failed: %s", len(failed), hi-lo+1, strings.Join(failed, " "))
	}
	return nil
}

// sweepSeed runs one wire seed at workers 1 and 2: both must finish with no
// file lost and no byte corrupted, and their metrics must agree.
func sweepSeed(clients int, seed uint64) error {
	var base string
	for _, workers := range []int{1, 2} {
		res, err := experiments.E15Cluster(clients, workers, seed, nil)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
		if lost, bad := res.Metrics["files_lost"], res.Metrics["bytes_corrupted"]; lost != 0 || bad != 0 {
			return fmt.Errorf("workers=%d: %v files lost, %v bytes corrupted", workers, lost, bad)
		}
		got := fmt.Sprint(res.Metrics) // fmt prints a map in key order
		if base != "" && got != base {
			return fmt.Errorf("workers 1 and %d disagree:\n%s\n---\n%s", workers, base, got)
		}
		base = got
	}
	return nil
}
