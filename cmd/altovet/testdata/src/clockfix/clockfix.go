// Package clockfix exercises the simtaint analyzer's call-site bans. It
// pretends to live at altoos/internal/clockfix, where reading or waiting on
// the host's wall clock is a finding; under altoos/cmd/clockfix the same code
// must pass, because entry points may read the wall clock and nothing here
// mixes the two time domains.
package clockfix

import (
	"time"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// bad reads and waits on the host's wall clock — both make an experiment
// unrepeatable.
func bad() int {
	t := time.Now()              // want "time.Now reads the host wall clock"
	time.Sleep(time.Millisecond) // want "time.Sleep reads the host wall clock"
	return t.Nanosecond()
}

// good draws time and randomness from the simulation substrate; using
// time.Duration and the time constants is fine.
func good(c *sim.Clock, r *sim.Rand) (time.Duration, uint16) {
	c.Advance(3 * time.Millisecond)
	return c.Now(), r.Word()
}

// badTracing stamps flight-recorder events off the host clock — the exact
// shape the tracing determinism contract forbids: the trace would differ on
// every run.
func badTracing(rec *trace.Recorder) {
	start := time.Now() // want "time.Now reads the host wall clock"
	rec.Emit(0, trace.KindDiskOp, "op", 0, 0)
	rec.EmitSpan(0, time.Since(start), trace.KindSeek, "", 0, 0) // want "time.Since reads the host wall clock"
}

// goodTracing stamps events exclusively off the simulated clock, so two runs
// of the same workload record byte-identical traces.
func goodTracing(rec *trace.Recorder, c *sim.Clock) {
	start := c.Now()
	c.Advance(2 * time.Millisecond)
	rec.EmitSpan(start, c.Now()-start, trace.KindSeek, "", 0, 0)
	sp := rec.Begin(c, trace.KindScavPhase, "sweep", 0, 0)
	sp.End()
}
