package main

// Metric declarations and the per-layer metrics of a traced pass. The names
// and units here are the ones BENCHMARK.json declares; perf_test.go checks
// that the two agree.

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_ops_per_s", "ops/s"},
	{"host_allocs_per_op", "allocs/op"},
	{"host_peak_rss_mb", "MB"},
	{"sim_makespan_s", "s"},
	{"sim_req_p50_ms", "ms"},
	{"sim_req_p99_ms", "ms"},
}

// probeNames are the layer probes, in the order they run.
var probeNames = []string{
	"disk.do", "disk.do_chain", "file.read_page", "dir.lookup", "stream.get",
	"pup.round_trip", "ether.send_recv", "fleet.handoff", "trace.emit_nil", "trace.emit_live",
}

// Counter metrics read straight from the program's recorders.
var (
	fsCounters    = []string{"fs.store", "fs.fetch", "fs.digest"}
	pupCounters   = []string{"pup.data.send", "pup.data.words", "pup.retransmit", "pup.retransmit.words", "pup.retransmit.fast", "pup.retransmit.rto", "pup.dup.data", "pup.ooo.buffered", "pup.ack.sent", "pup.checksum.drop", "pup.fail"}
	etherCounters = []string{"ether.send", "ether.recv", "ether.words", "ether.drop", "ether.corrupt", "ether.collision"}
	diskCounters  = []string{"disk.ops", "disk.chains", "disk.seeks", "disk.check.fail"}
	clusterCounts = []string{"cluster.round", "cluster.divergence", "cluster.heal", "cluster.heal.bytes", "cluster.audit.unreachable"}
)

// Call spans reported as calls plus host-time percentiles, keyed by metric
// prefix; the span name is the prefix itself.
var callSpans = []string{
	spFileCreate, spWritePages, spReadPages, spDirInsert, spDirLookup, spStreamWrite,
	spClusterStor, spClusterFet,
}

// perLayer lists every per-layer metric a traced run reports.
func perLayer() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	add("count", "fleet.steps")
	add("steps/op", "fleet.steps_per_op")
	add("ns", "fleet.activation_host_ns_p50", "fleet.activation_host_ns_p99", "fleet.engine_host_ns_per_step")
	add("fraction", "fleet.active_frac")
	for _, p := range []string{spClientPoll, spServerPoll} {
		add("count", p+".calls")
		add("ns", p+".host_ns_p50", p+".host_ns_p99")
		add("fraction", p+".worked_frac")
	}
	add("count", fsCounters...)
	for _, c := range pupCounters {
		if c == "pup.data.words" || c == "pup.retransmit.words" {
			add("words", c)
		} else {
			add("count", c)
		}
	}
	add("fraction", "pup.useful_frac")
	for _, c := range etherCounters {
		if c == "ether.words" {
			add("words", c)
		} else {
			add("count", c)
		}
	}
	add("fraction", "ether.delivered_frac")
	add("count", diskCounters...)
	for _, p := range callSpans {
		add("count", p+".calls")
		add("ns", p+".host_ns_p50", p+".host_ns_p99")
	}
	add("count", "scavenge.run.calls")
	add("s", "scavenge.run.host_s", "scavenge.run.sim_s")
	add("count", "scavenge.links.repaired", "compact.pages.moved", "fsck.check.calls")
	add("s", "fsck.check.host_s")
	add("count", "fsck.violations")
	add("count", spAuditRound+".calls")
	add("ns", spAuditRound+".host_ns_p50", spAuditRound+".host_ns_p99")
	add("ms", spAuditRound+".sim_ms_p50")
	for _, c := range clusterCounts {
		if c == "cluster.heal.bytes" {
			add("bytes", c)
		} else {
			add("count", c)
		}
	}
	add("s", "cluster.audit_sim_s")
	add("fraction", "perf.trace_overhead_frac")
	for _, p := range probeNames {
		add("ns", "probe."+p+".host_ns_per_op")
		add("allocs/op", "probe."+p+".allocs_per_op")
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rankIndex is the index of the nearest-rank q-quantile in a sorted sample
// of n values.
func rankIndex(n int, q float64) int {
	if k := int(math.Ceil(q*float64(n))) - 1; k > 0 {
		return k
	}
	return 0
}

// nearestRank returns the nearest-rank q-quantile of v, sorting v in place;
// 0 for an empty sample.
func nearestRank(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[rankIndex(len(v), q)])
}

// layerMetrics computes one traced pass's per-layer metrics: counts from the
// timed phase's counter deltas c, host times from the benchmark's spans.
func (e *env) layerMetrics(p *pass, c map[string]int64) map[string]float64 {
	var traces []*mtrace
	for _, m := range e.machines {
		traces = append(traces, m.tr)
	}
	st := collect(traces)
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	sum := func(v []int64) (t int64) {
		for _, x := range v {
			t += x
		}
		return t
	}
	v := map[string]float64{}
	count := func(name string) float64 { return float64(c[name]) }

	steps := float64(e.steps)
	act := get(spActivation)
	active := float64(sum(act.host))
	// Workers beyond the threads that run Go code interleave on them.
	capacity := float64(e.engineWall) * float64(min(e.workers, runtime.GOMAXPROCS(0)))
	v["fleet.steps"] = steps
	v["fleet.steps_per_op"] = ratio(steps, float64(p.ops))
	v["fleet.activation_host_ns_p50"] = nearestRank(act.host, 0.50)
	v["fleet.activation_host_ns_p99"] = nearestRank(act.host, 0.99)
	v["fleet.engine_host_ns_per_step"] = ratio(capacity-active, steps)
	v["fleet.active_frac"] = ratio(active, capacity)

	calls := func(prefix string, s *spanStats) {
		v[prefix+".calls"] = float64(len(s.host))
		v[prefix+".host_ns_p50"] = nearestRank(s.host, 0.50)
		v[prefix+".host_ns_p99"] = nearestRank(s.host, 0.99)
	}
	for _, name := range []string{spClientPoll, spServerPoll} {
		s := get(name)
		calls(name, s)
		v[name+".worked_frac"] = ratio(float64(s.worked), float64(len(s.host)))
	}
	for _, name := range callSpans {
		calls(name, get(name))
	}

	for _, group := range [][]string{fsCounters, pupCounters, etherCounters, diskCounters, clusterCounts} {
		for _, name := range group {
			v[name] = count(name)
		}
	}
	// The share of data words sent that were first transmissions. (One
	// minus retransmitted over first-sent words would go negative on fanin,
	// whose queued clients resend every second.)
	v["pup.useful_frac"] = ratio(count("pup.data.words"), count("pup.data.words")+count("pup.retransmit.words"))
	v["ether.delivered_frac"] = ratio(count("ether.recv"), count("ether.send"))

	scav := get(spScavenge)
	v["scavenge.run.calls"] = float64(len(scav.host))
	v["scavenge.run.host_s"] = float64(sum(scav.host)) / 1e9
	v["scavenge.run.sim_s"] = e.scavSim.Seconds()
	v["scavenge.links.repaired"] = count("scavenge.links.repaired")
	v["compact.pages.moved"] = count("compact.pages.moved")
	fsck := get(spFsck)
	v["fsck.check.calls"] = float64(len(fsck.host))
	v["fsck.check.host_s"] = float64(sum(fsck.host)) / 1e9
	v["fsck.violations"] = float64(e.violations)

	calls(spAuditRound, get(spAuditRound))
	var rounds []int64
	for _, m := range e.machines {
		for _, d := range m.auditSim {
			rounds = append(rounds, int64(d))
		}
	}
	v[spAuditRound+".sim_ms_p50"] = nearestRank(rounds, 0.50) / float64(time.Millisecond)
	v["cluster.audit_sim_s"] = e.auditSim.Seconds()
	return v
}
