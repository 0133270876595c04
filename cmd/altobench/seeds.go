// The cluster-seeds gate (altobench -seeds, make cluster-seeds): E15's claim
// must not rest on its published wire seed.

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
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

// sweepSeed runs one wire seed at workers 1 and 2, one recorder per
// machine: both must finish with no file lost and no byte corrupted, and
// their recordings must agree line for line.
func sweepSeed(clients int, seed uint64) error {
	var base []string
	for _, workers := range []int{1, 2} {
		fl := scope.NewFleet(trace.DefaultEvents)
		res, err := experiments.E15Cluster(clients, workers, seed, fl.Machine)
		if err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
		if lost, bad := res.Metrics["files_lost"], res.Metrics["bytes_corrupted"]; lost != 0 || bad != 0 {
			return fmt.Errorf("workers=%d: %v files lost, %v bytes corrupted", workers, lost, bad)
		}
		got := recording(res, fl)
		for i := 0; base != nil && i < len(base); i++ { // equal first lines give equal lengths
			if base[i] != got[i] {
				return fmt.Errorf("workers 1 and %d disagree:\n%s\n---\n%s", workers, base[i], got[i])
			}
		}
		base = got
	}
	return nil
}

// recording lists what a run must reproduce: its machine count and metrics
// (fmt prints a map in key order), then a SHA-256 of each machine's events
// and one of its metrics snapshot, machines in name order.
func recording(res *experiments.Result, fl *scope.Fleet) []string {
	ms := fl.Machines()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	out := []string{fmt.Sprintf("%d machines, metrics %v", len(ms), res.Metrics)}
	var buf []byte
	for _, m := range ms {
		h := sha256.New()
		for _, ev := range m.Rec.Events() {
			buf = buf[:0]
			for _, v := range [...]int64{int64(ev.T), int64(ev.Dur), int64(ev.Kind), ev.A0, ev.A1, ev.Flow, int64(len(ev.Name))} {
				buf = binary.AppendVarint(buf, v)
			}
			h.Write(append(buf, ev.Name...))
		}
		out = append(out, fmt.Sprintf("machine %q: events %x", m.Name, h.Sum(nil)),
			fmt.Sprintf("machine %q: metrics snapshot %x", m.Name, sha256.Sum256([]byte(m.Rec.Snapshot().Text()))))
	}
	return out
}
