package altoos

// The registry's experiments as benchmarks: one sub-benchmark per id
// (E1–E15, the ablations A1–A4), each reporting every metric of its Result
// via b.ReportMetric. The simulated quantities are pinned exactly by
// internal/experiments' TestGolden and held to the paper's bands by its
// per-experiment tests; here the wall-clock ns/op and allocs/op are what
// testing.B adds, and they measure only the host's simulation speed.
// cmd/altobench prints the same results as tables, and EXPERIMENTS.md
// records the paper-vs-measured comparison.

import (
	"testing"
	"time"

	"altoos/internal/experiments"
)

// BenchmarkExperiment runs each registered experiment untraced at one
// worker, once per iteration, and republishes its metrics.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			var last *experiments.Result
			for i := 0; i < b.N; i++ {
				r, err := experiments.Run(id, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			for k, v := range last.Metrics {
				b.ReportMetric(v, k)
			}
		})
	}
}

// BenchmarkE14FleetFanIn — §1: a hundred Altos boot and fan in on one file
// server, scheduled by the windowed parallel fleet engine. The simulated
// quantities (sim_seconds, scheduler_steps, retransmits) are deterministic;
// events_per_sec and speedup_x8 measure the host — the schedule executed at
// one worker vs eight. On a single-core host the speedup reads ~1.0 by
// construction.
func BenchmarkE14FleetFanIn(b *testing.B) {
	var last *experiments.Result
	var wall1, wall8 time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r, err := experiments.E14FanIn(100, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		wall1 = time.Since(t0)
		t0 = time.Now()
		if _, err := experiments.E14FanIn(100, 8, nil); err != nil {
			b.Fatal(err)
		}
		wall8 = time.Since(t0)
		last = r
	}
	for _, k := range []string{"sim_seconds", "scheduler_steps", "retransmits"} {
		b.ReportMetric(last.Metrics[k], k)
	}
	b.ReportMetric(last.Metrics["scheduler_steps"]/wall8.Seconds(), "events_per_sec")
	b.ReportMetric(wall1.Seconds()/wall8.Seconds(), "speedup_x8")
}
