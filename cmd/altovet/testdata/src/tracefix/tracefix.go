// Package tracefix exercises the tracecover analyzer. It is loaded under
// altoos/internal/disk — a traced package, whose exported sim-time-charging
// operations must be visible to the flight recorder — and under the untraced
// altoos/internal/tracefix, where the same code must pass (only the allow
// directive fires there, reported stale).
package tracefix

import (
	"time"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// The fixture's interned counter and histogram: a bump through a handle is
// an emission like any other.
var (
	cOp      = trace.NewCounter("fix.op")
	hLatency = trace.NewHist("fix.latency")
)

// Dev is a stand-in device: per-machine state plus its recorder.
type Dev struct {
	rec *trace.Recorder
	ops int64
}

// BadOp charges simulated time but emits nothing: invisible in the Chrome
// trace and the stats table.
func BadOp(c *sim.Clock) { // want "exported BadOp charges simulated time but emits no .*-attributed trace span or counter"
	c.Advance(3 * time.Millisecond)
}

// spin is the unexported worker BadDeep hides behind.
func spin(c *sim.Clock) {
	c.Advance(time.Millisecond)
}

// BadDeep charges simulated time through a helper — reachability, not
// syntax, decides.
func BadDeep(c *sim.Clock) { // want "exported BadDeep charges simulated time but emits no .*-attributed trace span or counter"
	spin(c)
}

// GoodOp pairs the charge with a counter attributed to this package.
func (d *Dev) GoodOp(c *sim.Clock) {
	c.Advance(2 * time.Millisecond)
	d.ops++
	d.rec.Add(cOp, 1)
}

// GoodHandleBump's only emission is a counter bump through the handle, in
// a helper: reachability finds it there.
func (d *Dev) GoodHandleBump(c *sim.Clock) {
	c.Advance(time.Millisecond)
	d.count()
}

// count bumps the fixture's counter by handle.
func (d *Dev) count() { d.rec.Add(cOp, 1) }

// GoodObserve's only emission is a histogram sample through its handle.
func (d *Dev) GoodObserve(c *sim.Clock) {
	c.Advance(time.Millisecond)
	d.rec.Observe(hLatency, 1)
}

// GoodSpan pairs the charge with a span.
func (d *Dev) GoodSpan(c *sim.Clock) {
	sp := d.rec.Begin(c, trace.KindDiskOp, "fix", 0, 0)
	c.Advance(time.Millisecond)
	sp.End()
}

// GoodFlow pairs the charge with an instant on a causal flow.
func (d *Dev) GoodFlow(c *sim.Clock) {
	c.Advance(time.Millisecond)
	d.rec.EmitFlow(c.Now(), trace.KindEtherSend, "fix", 0, 0, 1)
}

// GoodSpanFlow pairs the charge with a span on a causal flow.
func (d *Dev) GoodSpanFlow(c *sim.Clock) {
	start := c.Now()
	c.Advance(time.Millisecond)
	d.rec.EmitSpanFlow(start, c.Now()-start, trace.KindDiskOp, "fix", 0, 0, 1)
}

// GoodAccessor charges nothing: accessors and constructors pass without
// special cases.
func (d *Dev) GoodAccessor() int64 {
	return d.ops
}

// AllowedProbe shows the escape hatch for a deliberate blind spot — an
// offline inspection hook that must not pollute the trace.
//
//altovet:allow tracecover offline probe; events would drown the trace it inspects
func AllowedProbe(c *sim.Clock) {
	c.Advance(time.Microsecond)
}
