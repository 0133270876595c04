package altoos

// One benchmark per experiment (E1..E15) — the paper's quantitative claims.
// Each benchmark runs the corresponding workload generator from
// internal/experiments, untraced at one worker, and reports the *simulated* quantities the paper
// talks about via b.ReportMetric; the wall-clock ns/op that testing.B
// prints measures only the host's simulation speed and is not a
// reproduction target. cmd/altobench prints the same results as tables,
// and EXPERIMENTS.md records the paper-vs-measured comparison.

import (
	"testing"
	"time"

	"altoos/internal/experiments"
)

// report runs one experiment per iteration and republishes its metrics.
func report(b *testing.B, id string, keys ...string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, k := range keys {
		v, ok := last.Metrics[k]
		if !ok {
			b.Fatalf("experiment %s did not produce metric %q", last.ID, k)
		}
		b.ReportMetric(v, k)
	}
}

// BenchmarkE1RawTransfer — §2: "can transfer 64k words in about one second".
func BenchmarkE1RawTransfer(b *testing.B) {
	report(b, "e1", "sim_seconds_64kwords", "words_per_sec")
}

// BenchmarkE2AllocFreeCost — §3.3: alloc/free cost one revolution; ordinary
// writes check labels for free.
func BenchmarkE2AllocFreeCost(b *testing.B) {
	report(b, "e2", "alloc_overhead_revs", "free_overhead_revs")
}

// BenchmarkE3Scavenge — §3.5: "about a minute for a 2.5 megabyte disk".
func BenchmarkE3Scavenge(b *testing.B) {
	report(b, "e3", "scavenge_seconds_Diablo31", "scavenge_seconds_Trident")
}

// BenchmarkE4CompactionSpeedup — §3.5: order-of-magnitude sequential-read
// speedup after the compacting scavenger.
func BenchmarkE4CompactionSpeedup(b *testing.B) {
	report(b, "e4", "speedup", "aged_speedup")
}

// BenchmarkE5HintLadder — §3.6: the cost of each recovery level.
func BenchmarkE5HintLadder(b *testing.B) {
	report(b, "e5",
		"ms_direct_hint", "ms_link_chase", "ms_kth_page", "ms_fv_lookup", "ms_string_lookup", "ms_scavenge")
}

// BenchmarkE6WorldSwap — §4.1: OutLoad/InLoad take about a second each.
func BenchmarkE6WorldSwap(b *testing.B) {
	report(b, "e6", "outload_seconds", "inload_seconds")
}

// BenchmarkE7Junta — §5.2: storage freed per retained level.
func BenchmarkE7Junta(b *testing.B) {
	report(b, "e7", "max_words_freed", "full_resident_words")
}

// BenchmarkE8FaultInjection — §3.3/§6: label checks reject every wild
// write; the Scavenger recovers everything damage didn't directly destroy.
func BenchmarkE8FaultInjection(b *testing.B) {
	report(b, "e8",
		"wild_writes_rejected_pct", "map_lie_retries", "undamaged_recovery_pct")
}

// BenchmarkE9InstalledHints — §3.6: warm starts at maximum disk speed.
func BenchmarkE9InstalledHints(b *testing.B) {
	report(b, "e9", "warm_ms", "cold_ms", "warm_advantage")
}

// BenchmarkE10LoadedServer — §1: eight clients hammering one file server
// over a 10%-loss wire; the reliable transport hides every fault.
func BenchmarkE10LoadedServer(b *testing.B) {
	report(b, "e10",
		"sim_seconds", "goodput_words_per_sec", "retransmits")
}

// BenchmarkE11LossSweep — §1: steady-state goodput against packet loss,
// 0% to 20%, plus the waste metrics: what fraction of data words were
// resent, and what fraction of the phase the wire sat idle.
func BenchmarkE11LossSweep(b *testing.B) {
	report(b, "e11",
		"goodput_words_per_sec_loss0", "goodput_words_per_sec_loss10",
		"goodput_words_per_sec_loss20", "retransmits_loss20",
		"retransmitted_words_ratio_loss20", "wire_idle_frac_loss20")
}

// BenchmarkE12CrashSweep — §3.5: every crash point of the journaled-insert
// and compaction workloads, clean and torn, recovers to a pack fsck
// certifies violation-free.
func BenchmarkE12CrashSweep(b *testing.B) {
	report(b, "e12",
		"crash_points_total", "violations_total", "recovered_pct")
}

// BenchmarkE13Saturation — §1: two dozen flows saturate one 10%-loss
// segment; AIMD keeps them live and fair (Jain's index) with zero
// corrupted deliveries.
func BenchmarkE13Saturation(b *testing.B) {
	report(b, "e13",
		"jain_fairness_pct", "goodput_words_per_sec_total", "retransmits")
}

// BenchmarkE14FleetFanIn — §1: a hundred Altos boot and fan in on one file
// server, scheduled by the windowed parallel fleet engine. The simulated
// quantities (sim_seconds, scheduler_steps, retransmits) are deterministic;
// events_per_sec and speedup_x8 measure the host — the schedule executed at
// one worker vs eight — and carry benchdiff's relaxed wall-coupled
// tolerance. On a single-core host the speedup reads ~1.0 by construction.
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

// BenchmarkE15ClusterAudit — §3.5 across machines: a 4×3 replicated file
// service absorbs hundreds of sessions at 10% loss plus seeded rot, then the
// distributed Scavenger audits every pack back to byte-identical copies.
// files_lost and bytes_corrupted must hold at zero; divergence_detected is
// exact — the manufactured damage is part of the deterministic schedule, so
// any drift in what the audit saw is a behavior change, not noise.
func BenchmarkE15ClusterAudit(b *testing.B) {
	report(b, "e15",
		"files_lost", "bytes_corrupted", "divergence_detected",
		"heals", "audit_rounds_to_heal", "sim_seconds")
}
