package main

// One pass of a workload: build the rig (the set-up phase, timed on its own),
// then run the timed phase once. Every pass of a run builds a fresh rig from
// the same seed, so its simulation is identical to every other pass's; host
// time is what differs, and the run reports host metrics as medians across
// its passes.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"altoos/internal/fleet"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// ringEvents is each machine recorder's event ring. The benchmark reads only
// the recorders' counters, so the ring is kept small.
const ringEvents = 64

// workload is one set of inputs: a set-up phase that builds a rig and returns
// the timed phase that drives it.
type workload struct {
	name    string
	workers int
	setup   func(e *env) (timed func() error, err error)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []*workload{faninWorkload, bulkWorkload, clusterWorkload, churnWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// machine is one simulated Alto as the benchmark sees it: its clock, the
// recorder holding the program's counters, and its span buffer when traced.
type machine struct {
	name  string
	clock *sim.Clock
	rec   *trace.Recorder
	tr    *mtrace

	// auditSim holds the simulated duration of each audit round this
	// machine ran; only the machine's own goroutine appends to it.
	auditSim []time.Duration
}

// env is one pass's state.
type env struct {
	seed    uint64
	workers int
	smoke   bool
	traced  bool
	epoch   time.Time

	machines []*machine
	ops      ledger

	// setupSteps and steps count fleet activations in the set-up and timed
	// phases; engineWall is the host time the timed engines ran.
	setupSteps, steps int64
	engineWall        time.Duration

	// Measurements the program keeps no counter for.
	scavSim    time.Duration // simulated time inside scavenge.Run
	violations int64         // fsck violations found
	auditSim   time.Duration // simulated time of the audit phases
}

// newMachine registers a machine. Registration order is part of the digest,
// so workloads register in a fixed order.
func (e *env) newMachine(name string, clk *sim.Clock) *machine {
	m := &machine{name: name, clock: clk, rec: trace.New(ringEvents)}
	if e.traced {
		m.tr = newMtrace(e.epoch)
	}
	e.machines = append(e.machines, m)
	return m
}

// runEngine runs a fleet engine to completion, accounting its activations to
// the set-up or the timed phase.
func (e *env) runEngine(eng *fleet.Engine, timed bool) error {
	start := time.Now()
	err := eng.Run()
	if timed {
		e.engineWall += time.Since(start)
		e.steps += eng.Steps()
	} else {
		e.setupSteps += eng.Steps()
	}
	return err
}

// simNow is the latest machine clock: the fleet's simulated present.
func (e *env) simNow() time.Duration {
	var t time.Duration
	for _, m := range e.machines {
		if c := m.clock.Now(); c > t {
			t = c
		}
	}
	return t
}

// syncClocks brings every machine's clock up to the fleet's present. Between
// fleet phases the machines sit idle; without this, a client whose clock
// lagged a busy server's would wait out the whole gap in retransmission
// timeouts before it could see the server's replies.
func (e *env) syncClocks() {
	now := e.simNow()
	for _, m := range e.machines {
		m.clock.AdvanceTo(now)
	}
}

// counters sums every machine's counters by name.
func (e *env) counters() map[string]int64 {
	out := map[string]int64{}
	for _, m := range e.machines {
		for _, c := range m.rec.Snapshot().Counters {
			out[c.Name] += c.Value
		}
	}
	return out
}

// ledger holds each op's simulated latency, indexed by op ID. Ops are
// preallocated before the timed phase and each is written only by the
// machine that runs it, so concurrent machines never share an element.
type ledger struct {
	lat []time.Duration
	ok  []bool
}

func (l *ledger) init(n int) {
	l.lat = make([]time.Duration, n)
	l.ok = make([]bool, n)
}

// done records op id's outcome. A failed op keeps no latency: it ranks as
// +Inf.
func (l *ledger) done(id int, lat time.Duration, ok bool) {
	l.lat[id], l.ok[id] = lat, ok
}

// fail marks an op failed after the fact (a later audit found its write
// lost, or a later check found the pack damaged).
func (l *ledger) fail(id int) { l.ok[id] = false }

func (l *ledger) failed() int {
	n := 0
	for _, ok := range l.ok {
		if !ok {
			n++
		}
	}
	return n
}

// inf is the latency a failed op ranks with.
const inf = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the ops'
// latencies, failed ops counting as +Inf.
func (l *ledger) percentile(q float64) time.Duration {
	if len(l.lat) == 0 {
		return 0
	}
	v := make([]time.Duration, len(l.lat))
	for i := range l.lat {
		v[i] = l.lat[i]
		if !l.ok[i] {
			v[i] = inf
		}
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[rankIndex(len(v), q)]
}

// pass is the outcome of one pass.
type pass struct {
	setup   time.Duration // host time of the set-up phase
	wall    time.Duration // host time of the timed phase
	mallocs uint64        // heap allocations during the timed phase
	rss     float64       // peak resident set of the pass, MB
	ops     int
	failed  int

	makespan, p50, p99 time.Duration // simulated
	digest             string
	err                error

	// Traced passes only: the per-layer metrics, and the machines' names
	// and span buffers for a Chrome trace.
	layer  map[string]float64
	names  []string
	traces []*mtrace
}

// simMetric converts a simulated duration to the metric's unit, +Inf for a
// failed op.
func simMetric(d time.Duration, unit time.Duration) float64 {
	if d == inf {
		return math.Inf(1)
	}
	return float64(d) / float64(unit)
}

// runPass builds and runs one pass.
func runPass(w *workload, seed uint64, workers int, smoke, traced bool) *pass {
	// Every pass starts from the same state: the previous pass's garbage
	// collected and its memory handed back, so that the pass's own peak
	// resident set is what the high-water mark records.
	debug.FreeOSMemory()
	resetPeakRSS()
	e := &env{seed: seed, workers: workers, smoke: smoke, traced: traced, epoch: time.Now()}
	p := &pass{}
	start := time.Now()
	timed, err := w.setup(e)
	p.setup = time.Since(start)
	if err != nil {
		p.err = fmt.Errorf("%s set-up: %w", w.name, err)
		return p
	}
	before := e.counters()
	simStart := e.simNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start = time.Now()
	p.err = timed()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	p.rss = peakRSS()
	if p.err != nil {
		p.err = fmt.Errorf("%s: %w", w.name, p.err)
	}

	p.ops = len(e.ops.ok)
	p.failed = e.ops.failed()
	p.makespan = e.simNow() - simStart
	p.p50 = e.ops.percentile(0.50)
	p.p99 = e.ops.percentile(0.99)
	p.digest = e.digest(p)
	if traced {
		p.layer = e.layerMetrics(p, delta(e.counters(), before))
		for _, m := range e.machines {
			p.names = append(p.names, m.name)
			p.traces = append(p.traces, m.tr)
		}
	}
	return p
}

// digest is the simulation's fingerprint: every sim_* metric, each op's
// latency in op-ID order, each machine's final clock and sorted counters,
// and the fleet step counts. Host time never enters it, so a change that
// alters only host cost leaves it unchanged.
func (e *env) digest(p *pass) string {
	h := sha256.New()
	fmt.Fprintf(h, "makespan=%d p50=%d p99=%d\n", p.makespan, p.p50, p.p99)
	var b [8]byte
	for i, lat := range e.ops.lat {
		if !e.ops.ok[i] {
			lat = -1
		}
		binary.LittleEndian.PutUint64(b[:], uint64(lat))
		h.Write(b[:])
	}
	for _, m := range e.machines {
		fmt.Fprintf(h, "%s clock=%d\n", m.name, m.clock.Now())
		for _, c := range m.rec.Snapshot().Counters {
			fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
		}
	}
	fmt.Fprintf(h, "steps=%d/%d\n", e.setupSteps, e.steps)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func delta(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
