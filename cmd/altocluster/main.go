// altocluster drives the replicated file service (internal/cluster) from the
// command line: client sessions hammer a sharded, replicated cluster over a
// lossy wire, seeded bit-rot lands on one replica per shard, and the
// distributed Scavenger audits every pack back to byte-identical copies.
//
// The cluster inherits the fleet scheduler's contract: the whole two-phase
// run — every store, every packet, every audit round, every heal — is a pure
// function of the configuration, byte-identical across repeated runs and
// across -workers counts. The experiments package's TestDeterminism proves
// it for E15 (make determinism-check).
//
// -seeds proves the claim does not rest on a lucky wire: the full E15 runs on
// every wire fault seed in the range, at workers 1 and 2, and the process
// exits nonzero if any run errors (a stalled daemon, say), loses a file,
// corrupts a byte, or reports metrics that differ between the two widths.
// That is the make cluster-seeds gate.
//
// Usage:
//
//	altocluster                      # the full E15 run, as a table
//	altocluster -clients 6 -workers 1
//	altocluster -seeds 0-199
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"altoos/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		clients = flag.Int("clients", 24, "client machines (each runs several store sessions)")
		workers = flag.Int("workers", 8, "worker-pool width for the windowed schedule")
		seeds   = flag.String("seeds", "", "sweep wire seeds `lo-hi` at workers 1 and 2, failing on any error, loss, corruption or width difference")
	)
	flag.Parse()

	if *seeds != "" {
		lo, hi, err := parseRange(*seeds)
		if err != nil {
			log.Fatalf("altocluster: -seeds: %v", err)
		}
		if err := sweep(*clients, lo, hi); err != nil {
			log.Fatalf("altocluster: %v", err)
		}
		fmt.Printf("cluster-seeds ok: wire seeds %d-%d, %d clients, workers 1 and 2 agree, 0 files lost, 0 bytes corrupted\n", lo, hi, *clients)
		return
	}

	out, err := report(*clients, *workers)
	if err != nil {
		log.Fatalf("altocluster: %v", err)
	}
	fmt.Println(out)
}

// report runs the published E15 with the given client count and pool width
// and returns the table altocluster prints.
func report(clients, workers int) (string, error) {
	res, err := experiments.E15Cluster(clients, workers, experiments.E15WireSeed, nil)
	if err != nil {
		return "", err
	}
	return res.Table(), nil
}

// writeMetrics appends every metric of a run to b, one line each, in name
// order.
func writeMetrics(b *strings.Builder, res *experiments.Result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "metric %s %v\n", k, res.Metrics[k])
	}
}

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
// [lo, hi] at workers 1 and 2. Every failing seed is reported, not just the
// first.
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
		var b strings.Builder
		writeMetrics(&b, res)
		if base == "" {
			base = b.String()
		} else if b.String() != base {
			return fmt.Errorf("workers 1 and %d disagree:\n%s---\n%s", workers, base, b.String())
		}
	}
	return nil
}
