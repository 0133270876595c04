package pup

import (
	"time"

	"altoos/internal/ether"
)

// State is a connection's lifecycle position.
type State uint8

const (
	// StateOpening: Open sent, OpenAck awaited (dialing side only).
	StateOpening State = iota
	// StateOpen: established; data flows.
	StateOpen
	// StateClosing: Close requested locally; flushing, then handshaking.
	StateClosing
	// StateClosed: handshake done, peer closed, or the conn died — see Err.
	StateClosed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateOpening:
		return "opening"
	case StateOpen:
		return "open"
	case StateClosing:
		return "closing"
	case StateClosed:
		return "closed"
	}
	return "?"
}

// outPacket is one unacked message in the send window. The flow id is
// captured at Send time, so retransmissions carry the *original* flow —
// a lost packet and its replacements form one causal chain in the trace.
type outPacket struct {
	seq      uint16
	flow     uint16
	data     []ether.Word
	sentAt   time.Duration // last (re)transmission time, for RTT samples
	deadline time.Duration // simulated time of the next retransmission
	backoff  int           // RTO multiplier; doubles per timeout
	retries  int           // consecutive timeouts; ack progress forgives
	rexmits  int           // times retransmitted (Karn: no RTT sample then)
	sacked   bool          // peer holds it out of order; no timer, no resend
	fastLoss bool          // already fast-retransmitted in this recovery
}

// inMsg is one delivered in-order message with the flow id it arrived under.
type inMsg struct {
	flow uint16
	data []ether.Word
}

// ctrlState is the retransmission state of a pending Open or Close.
type ctrlState struct {
	kind     ether.Word // TypeOpen or TypeClose; 0 = none pending
	deadline time.Duration
	rto      time.Duration
	retries  int
}

// Conn is one reliable connection. Conns are created by Endpoint.Dial or
// surfaced by Endpoint.Accept, and make progress only while their endpoint
// is polled — like every object on this poll-driven machine.
type Conn struct {
	ep       *Endpoint
	remote   ether.Addr
	id       uint16
	state    State
	accepted bool // true on the listening side
	err      error

	// Send side: seq of the next fresh message and the unacked window in
	// seq order. Entries leave from the front on cumulative acks; SACKed
	// entries in the middle stay (they hold their place in the sequence)
	// but carry no timer and are never retransmitted.
	sendSeq uint16
	sendQ   []outPacket

	// Ack-clock state: the highest cumulative ack seen, the run of
	// duplicate acks since (three trigger a fast retransmit), and the
	// peer's advertised receive window from its latest packet.
	lastAck  uint16
	dupAcks  int
	peerAwnd int

	// Congestion control (integer AIMD): cwnd is the congestion window in
	// packets, ssthresh the slow-start ceiling, caCredit the acked-packet
	// accumulator that buys +1 cwnd per full window during congestion
	// avoidance. recovering marks a fast-recovery episode, over when the
	// cumulative ack reaches recoverSeq (the send horizon at loss time) —
	// until then further dup acks must not halve the window again.
	cwnd       int
	ssthresh   int
	caCredit   int
	recovering bool
	recoverSeq uint16

	// Adaptive RTO (Jacobson): smoothed RTT and variance from clean
	// samples (never a retransmitted packet — Karn's rule). rttValid
	// gates the estimator until the first sample lands.
	srtt     time.Duration
	rttvar   time.Duration
	rttValid bool

	// Receive side: next expected seq, the in-order delivery queue, and
	// the out-of-order reassembly buffer sorted by distance from recvNext
	// (a slice, never a map: delivery order is part of the trace).
	recvNext uint16
	recvQ    []inMsg
	ooo      []inMsg
	oooSeq   []uint16

	// Delayed-ack state: how many in-order packets arrived unacked, the
	// armed timer, and the flow the eventual ack should echo. Any outbound
	// packet clears all three (the header piggybacks the ack state).
	ackPending int
	ackArmed   bool
	ackDue     time.Duration
	ackFlow    uint16

	// flow is the causal flow id stamped on outbound packets (0: none).
	// Set per request by the layer above; see SetFlow.
	flow uint16

	// ctrl is the pending Open/Close retransmission state (kind 0: none).
	ctrl ctrlState
}

// Remote returns the peer's station address.
func (c *Conn) Remote() ether.Addr { return c.remote }

// ID returns the connection id (chosen by the dialing side).
func (c *Conn) ID() uint16 { return c.id }

// State returns the lifecycle position.
func (c *Conn) State() State { return c.state }

// Err returns the terminal error, if the connection died (nil on a clean
// close). ErrRetriesExhausted is the typed verdict for a silent peer.
func (c *Conn) Err() error { return c.err }

// Unacked returns the number of sent-but-unacknowledged messages — zero
// means everything sent so far has provably arrived.
func (c *Conn) Unacked() int { return len(c.sendQ) }

// SetFlow sets the causal flow id stamped on messages sent from now on
// (trace.Recorder.NextFlow allocates them; 0 clears). Each queued message
// keeps the flow that was current when it was sent, so retransmissions stay
// on their original flow even after the conn moves to a new request.
func (c *Conn) SetFlow(flow int64) { c.flow = uint16(flow) }

// Flow returns the current outbound flow id.
func (c *Conn) Flow() int64 { return int64(c.flow) }

// seqLess compares sequence numbers on the 16-bit circle.
func seqLess(a, b uint16) bool { return int16(a-b) < 0 }

// window is the effective send window: congestion window, peer's
// advertised receive window and the configured hard cap, whichever is
// tightest. The advertisement is floored at one on the receive side, so
// this can stall but never deadlock.
func (c *Conn) window() int {
	w := c.cwnd
	if c.peerAwnd < w {
		w = c.peerAwnd
	}
	if c.ep.window < w {
		w = c.ep.window
	}
	return w
}

// Avail returns how many messages Send will currently accept — the
// effective window minus what is already in flight. Callers batch sends
// against it instead of probing for ErrWindowFull; zero means poll until
// acks drain the window (or, on a closed conn, forever).
func (c *Conn) Avail() int {
	if c.err != nil || c.state == StateClosing || c.state == StateClosed {
		return 0
	}
	a := c.window() - len(c.sendQ)
	if a < 0 {
		return 0
	}
	return a
}

// Send queues one message (at most MaxData words) into the send window and
// transmits it. A full window returns ErrWindowFull — backpressure, not an
// error to abort on: poll until acks drain the window, then retry (or ask
// Avail first and never see the error).
func (c *Conn) Send(data []ether.Word) error {
	if c.err != nil {
		return c.err
	}
	if c.state == StateClosing || c.state == StateClosed {
		return ErrClosed
	}
	if len(data) > MaxData {
		return ErrTooBig
	}
	if len(c.sendQ) >= c.window() {
		return ErrWindowFull
	}
	op := outPacket{
		seq:     c.sendSeq,
		flow:    c.flow,
		data:    ether.Clone(data),
		backoff: 1,
	}
	c.sendSeq++
	c.sendQ = append(c.sendQ, op)
	return c.transmit(&c.sendQ[len(c.sendQ)-1], false)
}

// Recv pops the next in-order received message, if any. The message is a
// pool buffer that now belongs to the caller: it stays intact for as long as
// the caller keeps it, and a caller done with it may hand it back with
// ether.Free.
func (c *Conn) Recv() ([]ether.Word, bool) {
	data, _, ok := c.RecvFlow()
	return data, ok
}

// RecvFlow pops the next in-order received message along with the causal
// flow id it arrived under — how a server adopts its client's flow. The
// message's ownership passes as with Recv.
func (c *Conn) RecvFlow() ([]ether.Word, int64, bool) {
	if len(c.recvQ) == 0 {
		return nil, 0, false
	}
	m := c.recvQ[0]
	c.recvQ = dropFront(c.recvQ, 1)
	return m.data, int64(m.flow), true
}

// dropFront removes q's first n entries by sliding the rest down, so a queue
// that cycles through entries keeps reusing one array instead of re-slicing
// its front away and regrowing. The vacated tail is zeroed so the array pins
// no buffer it no longer holds.
func dropFront[T any](q []T, n int) []T {
	live := copy(q, q[n:])
	clear(q[live:])
	return q[:live]
}

// FlushAck sends any pending delayed acknowledgment immediately. Callers
// about to go quiet for a long stretch of simulated time (a server heading
// into a chained disk transfer) flush first, so the peer is not left timing
// out against an ack that is merely sitting in the delay window.
func (c *Conn) FlushAck() error {
	if c.err != nil || c.state == StateClosed {
		return nil
	}
	if !c.ackArmed && c.ackPending == 0 {
		return nil
	}
	return c.sendAck(c.ackFlow)
}

// Close begins a graceful close: the window is flushed first, then the
// Close/CloseAck handshake runs on the usual timers. Progress happens in
// Poll; watch State (or Err) for completion.
func (c *Conn) Close() error {
	if c.err != nil {
		return c.err
	}
	if c.state == StateClosed {
		return nil
	}
	c.state = StateClosing
	return nil
}

// awnd is the receive window advertisement: the configured budget minus
// everything held (undelivered in-order messages plus the reassembly
// buffer), floored at one packet. A true zero advertisement would need a
// persist-probe mechanism to reopen; the floor keeps the machine
// deadlock-free and bounds the overshoot to one packet per round trip.
func (c *Conn) awnd() int {
	a := recvWindow - len(c.recvQ) - len(c.ooo)
	if a < 1 {
		return 1
	}
	return a
}

// sackMask names the out-of-order packets held in the reassembly buffer,
// as bits relative to the cumulative ack: bit i set means "I already hold
// recvNext+1+i". The two words cover sackSpan sequence numbers, which is
// the whole default receive window.
func (c *Conn) sackMask() (lo, hi ether.Word) {
	var m [2]ether.Word
	for _, seq := range c.oooSeq {
		d := seq - c.recvNext
		if d == 0 || d > sackSpan {
			continue
		}
		bit := int(d - 1)
		m[bit/16] |= 1 << (bit % 16)
	}
	return m[0], m[1]
}

// rto is the current base retransmission timeout: Jacobson's srtt + 4·rttvar
// once samples flow, the configured initial value before, clamped to
// [minRTO, MaxRTO] always.
func (c *Conn) rto() time.Duration {
	r := initRTO
	if c.rttValid {
		r = c.srtt + 4*c.rttvar
	}
	if r < minRTO {
		r = minRTO
	}
	if r > c.ep.cfg.MaxRTO {
		r = c.ep.cfg.MaxRTO
	}
	return r
}

// rtoAfter applies a packet's exponential backoff to the base timeout,
// still capped at MaxRTO.
func (c *Conn) rtoAfter(backoff int) time.Duration {
	r := c.rto() * time.Duration(backoff)
	if r > c.ep.cfg.MaxRTO {
		r = c.ep.cfg.MaxRTO
	}
	return r
}

// updateRTT feeds one clean sample to the Jacobson estimator (integer
// arithmetic on simulated nanoseconds: srtt += err/8, rttvar += (|err| -
// rttvar)/4 — deterministic, no floats).
func (c *Conn) updateRTT(sample time.Duration) {
	if !c.rttValid {
		c.srtt = sample
		c.rttvar = sample / 2
		c.rttValid = true
	} else {
		err := sample - c.srtt
		c.srtt += err / 8
		if err < 0 {
			err = -err
		}
		c.rttvar += (err - c.rttvar) / 4
	}
	c.ep.rec().Observe("pup.srtt.ms", float64(c.srtt)/1e6)
}

// setCwnd moves the congestion window, recording the trajectory.
func (c *Conn) setCwnd(w int) {
	if w < 1 {
		w = 1
	}
	if w > c.ep.window {
		w = c.ep.window
	}
	if w == c.cwnd {
		return
	}
	c.cwnd = w
	c.ep.rec().Observe("pup.cwnd", float64(w))
}

// grow opens the congestion window for acked packets: +1 per ack in slow
// start, +1 per full window of acks in congestion avoidance (the caCredit
// accumulator keeps it integer and deterministic).
func (c *Conn) grow(acked int) {
	for i := 0; i < acked; i++ {
		if c.cwnd < c.ssthresh {
			c.setCwnd(c.cwnd + 1)
			continue
		}
		c.caCredit++
		if c.caCredit >= c.cwnd {
			c.caCredit -= c.cwnd
			c.setCwnd(c.cwnd + 1)
		}
	}
}

// halve is the multiplicative decrease on loss detected by dup acks:
// ssthresh and cwnd drop to half the flight size (floor 2 — one packet
// must always fly or the ack clock stops).
func (c *Conn) halve() {
	half := len(c.sendQ) / 2
	if half < 2 {
		half = 2
	}
	c.ssthresh = half
	c.caCredit = 0
	c.setCwnd(half)
}

// transmit puts one window entry on the wire and arms its timer. The
// entry's own captured flow goes out — not the conn's current one — so a
// retransmit fired after the conn moved on still names the request that
// queued it.
func (c *Conn) transmit(op *outPacket, rexmit bool) error {
	if err := c.ep.sendPacket(c, TypeData, op.seq, op.flow, op.data); err != nil {
		return err
	}
	rec := c.ep.rec()
	if rexmit {
		op.rexmits++
		rec.Add("pup.retransmit", 1)
		rec.Add("pup.retransmit.words", int64(len(op.data)))
	} else {
		rec.Add("pup.data.send", 1)
		rec.Add("pup.data.words", int64(len(op.data)))
	}
	now := c.ep.clock.Now()
	op.sentAt = now
	op.deadline = now + c.rtoAfter(op.backoff)
	return nil
}

// sendAck emits a bare ack carrying the full ack state (cumulative ack,
// advertised window, SACK mask), echoing the flow that provoked it.
func (c *Conn) sendAck(flow uint16) error {
	c.ep.rec().Add("pup.ack.sent", 1)
	return c.ep.sendPacket(c, TypeAck, 0, flow, nil)
}

// sendCtrl transmits (or retransmits) the pending control packet.
func (c *Conn) sendCtrl(kind ether.Word) error {
	if c.ctrl.kind != kind {
		c.ctrl = ctrlState{kind: kind, rto: c.rto()}
	}
	if err := c.ep.sendPacket(c, kind, 0, c.flow, nil); err != nil {
		return err
	}
	c.ctrl.deadline = c.ep.clock.Now() + c.ctrl.rto
	return nil
}

// handleData processes an inbound data packet (its piggybacked ack state
// has already gone through handleAckInfo). The next expected sequence is
// delivered and may drain the reassembly buffer behind it; anything else
// within the window is buffered out of order. Duplicates, reordering and
// hole fills ack immediately — that is the news the sender's fast-
// retransmit logic runs on; plain in-order progress is acked lazily
// (every ackEvery packets or after ackDelay, whichever first).
func (c *Conn) handleData(seq, flow uint16, data []ether.Word) error {
	rec := c.ep.rec()
	switch {
	case seq == c.recvNext:
		c.recvQ = append(c.recvQ, inMsg{flow: flow, data: ether.Clone(data)})
		c.recvNext++
		drained := 0
		for drained < len(c.oooSeq) && c.oooSeq[drained] == c.recvNext {
			c.recvQ = append(c.recvQ, c.ooo[drained])
			c.recvNext++
			drained++
		}
		c.ooo = dropFront(c.ooo, drained)
		c.oooSeq = dropFront(c.oooSeq, drained)
		delivered := 1 + drained
		rec.Add("pup.data.recv", int64(delivered))
		c.ackPending += delivered
		c.ackFlow = flow
		if delivered > 1 || c.ackPending >= c.ep.ackEvery {
			// A hole just closed (the retransmitter must stand down) or
			// enough progress accumulated: say so now.
			return c.sendAck(flow)
		}
		if !c.ackArmed {
			c.ackArmed = true
			c.ackDue = c.ep.clock.Now() + ackDelay
		}
		return nil
	case seqLess(seq, c.recvNext):
		// Old news: our ack was lost. Re-ack immediately.
		rec.Add("pup.dup.data", 1)
		return c.sendAck(flow)
	default:
		// A hole opened (or a duplicate overtaker arrived). Buffer what
		// fits and ack immediately — the SACK mask in that ack is what
		// turns the sender's timers into surgical retransmissions.
		d := seq - c.recvNext
		if int(d) > sackSpan || len(c.ooo) >= recvWindow {
			rec.Add("pup.window.drop", 1)
			return c.sendAck(flow)
		}
		pos := len(c.oooSeq)
		dup := false
		for i, have := range c.oooSeq {
			hd := have - c.recvNext
			if hd == d {
				dup = true
				break
			}
			if hd > d {
				pos = i
				break
			}
		}
		if dup {
			rec.Add("pup.dup.data", 1)
		} else {
			c.ooo = append(c.ooo, inMsg{})
			copy(c.ooo[pos+1:], c.ooo[pos:])
			c.ooo[pos] = inMsg{flow: flow, data: ether.Clone(data)}
			c.oooSeq = append(c.oooSeq, 0)
			copy(c.oooSeq[pos+1:], c.oooSeq[pos:])
			c.oooSeq[pos] = seq
			rec.Add("pup.ooo.buffered", 1)
		}
		return c.sendAck(flow)
	}
}

// handleAckInfo applies the ack state every inbound packet carries:
// cumulative ack, advertised window, SACK mask. Cumulative progress pops
// the window front, feeds the RTT estimator (cleanest popped sample, per
// Karn), grows cwnd and forgives retries; SACK marks survivors that need
// no retransmission; duplicate acks count toward fast retransmit.
func (c *Conn) handleAckInfo(ack uint16, awnd int, sackLo, sackHi ether.Word) error {
	prevAwnd := c.peerAwnd
	c.peerAwnd = awnd
	now := c.ep.clock.Now()

	// Cumulatively acked copies are never sent again: back to the pool.
	popped := 0
	sample := time.Duration(-1)
	for popped < len(c.sendQ) && seqLess(c.sendQ[popped].seq, ack) {
		op := &c.sendQ[popped]
		if op.rexmits == 0 {
			sample = now - op.sentAt
		}
		ether.Free(op.data)
		popped++
	}
	c.sendQ = dropFront(c.sendQ, popped)

	// Mark SACKed survivors: bit i covers ack+1+i.
	mask := [2]ether.Word{sackLo, sackHi}
	newlySacked := 0
	for i := range c.sendQ {
		d := c.sendQ[i].seq - ack
		if d == 0 || d > sackSpan || c.sendQ[i].sacked {
			continue
		}
		bit := int(d - 1)
		if mask[bit/16]&(1<<(bit%16)) != 0 {
			c.sendQ[i].sacked = true
			newlySacked++
		}
	}

	if popped > 0 {
		if sample >= 0 {
			c.updateRTT(sample)
		}
		c.lastAck = ack
		c.dupAcks = 0
		// The window front is by definition the packet the peer is
		// missing; a stale SACK can never legitimately cover it.
		if len(c.sendQ) > 0 && c.sendQ[0].seq == ack {
			c.sendQ[0].sacked = false
		}
		c.grow(popped)
		// The peer is alive and draining: restart the surviving timers
		// and forgive accumulated retries. The retry cap measures
		// consecutive silence (a dead peer), not congestion.
		for i := range c.sendQ {
			c.sendQ[i].retries = 0
			c.sendQ[i].backoff = 1
			if !c.sendQ[i].sacked {
				c.sendQ[i].deadline = now + c.rto()
			}
		}
		if c.recovering {
			if !seqLess(ack, c.recoverSeq) {
				// The whole loss window is accounted for.
				c.recovering = false
				for i := range c.sendQ {
					c.sendQ[i].fastLoss = false
				}
			} else if len(c.sendQ) > 0 && !c.sendQ[0].sacked && !c.sendQ[0].fastLoss {
				// Partial ack: the retransmission landed but exposed the
				// next hole. Resend it now instead of waiting out a timer
				// (NewReno's partial-ack rule, with SACK precision).
				c.sendQ[0].fastLoss = true
				c.ep.rec().Add("pup.retransmit.fast", 1)
				return c.transmit(&c.sendQ[0], true)
			}
		}
		return nil
	}

	if len(c.sendQ) == 0 {
		return nil
	}
	// No progress. A pure window update (advertisement moved, nothing new
	// SACKed) is not evidence of loss; anything else repeating the same
	// cumulative ack is a duplicate ack — the receiver is seeing packets
	// beyond a hole.
	if ack != c.lastAck || (newlySacked == 0 && awnd != prevAwnd) {
		return nil
	}
	c.dupAcks++
	c.ep.rec().Add("pup.dup.ack", 1)
	if c.dupAcks == dupAckThreshold && !c.recovering {
		// Fast retransmit: the first unsacked packet is the hole.
		c.halve()
		c.recovering = true
		c.recoverSeq = c.sendSeq
		for i := range c.sendQ {
			if c.sendQ[i].sacked {
				continue
			}
			c.sendQ[i].fastLoss = true
			c.ep.rec().Add("pup.retransmit.fast", 1)
			return c.transmit(&c.sendQ[i], true)
		}
		return nil
	}
	if c.dupAcks > dupAckThreshold && c.recovering {
		// Each further dup ack may expose one more hole: the lowest
		// unsacked, not-yet-resent packet with at least a dup-ack-
		// threshold of SACKed packets above it is provably lost, not
		// merely reordered.
		above := 0
		candidate := -1
		for i := len(c.sendQ) - 1; i >= 0; i-- {
			if c.sendQ[i].sacked {
				above++
				continue
			}
			if above >= dupAckThreshold && !c.sendQ[i].fastLoss {
				candidate = i
			}
		}
		if candidate >= 0 {
			c.sendQ[candidate].fastLoss = true
			c.ep.rec().Add("pup.retransmit.fast", 1)
			return c.transmit(&c.sendQ[candidate], true)
		}
	}
	return nil
}

// fail kills the connection with a terminal error.
func (c *Conn) fail(err error) {
	c.err = err
	c.state = StateClosed
	c.ep.rec().Add("pup.fail", 1)
}

// tick fires due timers: the delayed ack, control retransmissions, and the
// per-packet retransmission timeouts. It reports whether it did work and
// whether timers remain pending (so the endpoint knows to keep simulated
// time flowing).
func (c *Conn) tick(now time.Duration) (worked, waiting bool, err error) {
	if c.state == StateClosed {
		return false, false, nil
	}
	// Launch the close handshake once the window has flushed.
	if c.state == StateClosing && len(c.sendQ) == 0 && c.ctrl.kind == 0 {
		if err := c.sendCtrl(TypeClose); err != nil {
			return true, true, err
		}
		worked = true
	}
	if c.ctrl.kind != 0 {
		waiting = true
		if now >= c.ctrl.deadline {
			if c.ctrl.retries >= c.ep.cfg.MaxRetries {
				c.fail(ErrRetriesExhausted)
				return worked, false, nil
			}
			c.ctrl.retries++
			c.ctrl.rto = backoff(c.ctrl.rto, c.ep.cfg.MaxRTO)
			if err := c.sendCtrl(c.ctrl.kind); err != nil {
				return true, true, err
			}
			c.ep.rec().Add("pup.retransmit", 1)
			worked = true
		}
	}
	if c.ackArmed {
		waiting = true
		if now >= c.ackDue {
			c.ep.rec().Add("pup.ack.delayed", 1)
			if err := c.sendAck(c.ackFlow); err != nil {
				return true, true, err
			}
			worked = true
		}
	}
	cut := false
	for i := range c.sendQ {
		if c.sendQ[i].sacked {
			continue
		}
		waiting = true
		if now < c.sendQ[i].deadline {
			continue
		}
		if c.sendQ[i].retries >= c.ep.cfg.MaxRetries {
			c.fail(ErrRetriesExhausted)
			return worked, false, nil
		}
		if !cut {
			// A timeout means the ack clock stopped entirely: collapse to
			// slow start (once per tick, however many timers fired).
			cut = true
			half := len(c.sendQ) / 2
			if half < 2 {
				half = 2
			}
			c.ssthresh = half
			c.caCredit = 0
			c.setCwnd(1)
			c.recovering = false
			for j := range c.sendQ {
				c.sendQ[j].fastLoss = false
			}
		}
		c.sendQ[i].retries++
		// The multiplier saturates: rtoAfter clamps to MaxRTO anyway, and
		// letting it double without bound overflows the rto()*backoff
		// product on long retry ladders, turning the deadline negative and
		// the timeout into a busy loop.
		if c.sendQ[i].backoff < 1<<16 {
			c.sendQ[i].backoff *= 2
		}
		c.ep.rec().Add("pup.retransmit.rto", 1)
		if err := c.transmit(&c.sendQ[i], true); err != nil {
			return true, true, err
		}
		worked = true
	}
	return worked, waiting, nil
}

// nextDeadline reports the earliest pending timer on the connection — the
// same three sources tick fires on: control retransmission, the delayed
// ack, and unsacked data retransmissions. An event-driven scheduler uses it
// (via Clock.RequestWake) to sleep the machine until something is actually
// due instead of spinning idle polls toward it.
func (c *Conn) nextDeadline() (time.Duration, bool) {
	if c.state == StateClosed {
		return 0, false
	}
	var best time.Duration
	ok := false
	take := func(d time.Duration) {
		if !ok || d < best {
			best, ok = d, true
		}
	}
	if c.ctrl.kind != 0 {
		take(c.ctrl.deadline)
	}
	if c.ackArmed {
		take(c.ackDue)
	}
	for i := range c.sendQ {
		if !c.sendQ[i].sacked {
			take(c.sendQ[i].deadline)
		}
	}
	return best, ok
}

// backoff doubles an RTO up to the cap.
func backoff(rto, maxRTO time.Duration) time.Duration {
	rto *= 2
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}
