// Package pup is a reliable, windowed, ack-based transport over the
// simulated Ethernet — the PUP/EFTP-shaped layer the paper's §1 openness
// story presumes: only the packet representation is standardized, and
// everything above it must survive a wire that drops, duplicates, delays
// and corrupts (see ether.FaultMedium).
//
// The machine is single-user and poll-driven (§2: no scheduler beyond the
// keyboard interrupt), so the transport is explicitly pollable: an Endpoint
// owns one ether.Station, demultiplexes inbound packets onto connections
// keyed by (remote address, connection id), and runs every retransmission
// timer off the shared simulated clock during Poll. There are no
// goroutines, no wall-clock timers, and no map-order dependence: two runs
// of the same workload retransmit the same packets at the same simulated
// times (cmd/altobench's TestTracesAreByteIdentical asserts the property
// byte-for-byte).
//
// Reliability mechanics, v2 — selective repeat instead of go-back-N:
//
//   - every data packet carries a 16-bit sequence number; the receiver
//     delivers in order but holds out-of-order arrivals in a reassembly
//     buffer instead of discarding them, so one lost packet costs one
//     retransmission, not the whole window;
//   - acks are cumulative (ack=n means "I hold everything below n") and
//     additionally carry a 32-bit SACK mask naming exactly which packets
//     above the ack the receiver already buffered; the sender retransmits
//     only the holes;
//   - acks are delayed and batched: one ack per four in-order packets or
//     per ackDelay (2 ms) of simulated time, whichever first;
//     duplicates, reordering and hole fills ack immediately (the sender
//     needs the news), and every outbound data packet piggybacks the
//     current ack state for free;
//   - three duplicate acks trigger a fast retransmit of the first hole
//     without waiting for a timer (and halve the congestion window);
//   - the retransmission timeout adapts: each clean RTT sample (Karn's
//     rule — never from a retransmitted packet) feeds Jacobson's
//     estimator, RTO = srtt + 4·rttvar clamped to [minRTO,
//     Config.MaxRTO], with exponential backoff per packet while it keeps
//     timing out;
//   - the sender's effective window is min(cwnd, peer's advertised
//     window, a hard cap of 32): cwnd is an integer AIMD congestion window
//     (slow start from 2, +1 per acked window above ssthresh,
//     halved on fast retransmit, collapsed to 1 on timeout), and the
//     advertised window is how the receiver's unread buffer pushes back
//     on the sender. A full window surfaces ErrWindowFull — and
//     Conn.Avail says how many sends will fit, so callers can batch;
//   - a conn that exhausts Config.MaxRetries of consecutive silence dies
//     with ErrRetriesExhausted; any ack progress forgives the count;
//   - connections open and close by handshake (Open/OpenAck,
//     Close/CloseAck); both control packets ride the same timers, and
//     both handshakes are idempotent so duplicated or re-ordered control
//     packets are harmless;
//   - a packet whose checksum word no longer matches its content
//     (ether.Packet.SumOK) is dropped on arrival, converting corruption
//     into loss, which retransmission already repairs.
package pup

import (
	"errors"
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// Packet types, claiming a range of their own (0x50 up).
const (
	// TypeOpen asks the remote endpoint to create a connection.
	TypeOpen ether.Word = 0x50 + iota
	// TypeOpenAck confirms it.
	TypeOpenAck
	// TypeData carries one message: header plus data words.
	TypeData
	// TypeAck acknowledges: header only, cumulative ack + SACK mask.
	TypeAck
	// TypeClose begins the close handshake.
	TypeClose
	// TypeCloseAck completes it.
	TypeCloseAck
)

// headerWords is the transport header inside the ether payload:
//
//	[0] connection id
//	[1] sequence number (data packets; 0 on acks and control)
//	[2] cumulative ack: next sequence the sender of this packet expects
//	[3] advertised receive window, in packets (flow control)
//	[4] SACK mask, low 16 bits: bit i set = "I hold ack+1+i"
//	[5] SACK mask, high 16 bits (together they cover ack+1 .. ack+32)
//	[6] causal flow id
//
// Every word rides in the charged, checksummed payload — context costs
// payload, exactly like the flow word before it. The flow is mirrored into
// ether.Packet.Flow so the medium can stamp its own events (sends,
// collisions, fault verdicts) onto the same flow; acks echo the flow of
// the packet they acknowledge, so a retransmitted request and the ack that
// finally quenches it render as one causal chain.
const headerWords = 7

// sackSpan is how many sequence numbers above the cumulative ack the two
// SACK words can name. The receive window defaults to the same value, so
// by default every buffered out-of-order packet is announced.
const sackSpan = 32

// MaxData is the data capacity of one transport packet, in words.
const MaxData = ether.MaxPayload - headerWords

// dupAckThreshold is how many duplicate acks trigger a fast retransmit —
// TCP's classic three: fewer, and simple reordering would spuriously
// retransmit; more, and a real loss waits longer than it must.
const dupAckThreshold = 3

// Errors.
var (
	// ErrRetriesExhausted reports a connection killed by its retry cap:
	// the remote end stayed silent through every backoff level.
	ErrRetriesExhausted = errors.New("pup: retransmit retries exhausted")
	// ErrWindowFull is send-side backpressure: the effective window
	// (congestion x flow control) is full. Poll until acks drain it.
	ErrWindowFull = errors.New("pup: send window full")
	// ErrClosed reports a send on a closing or closed connection.
	ErrClosed = errors.New("pup: connection closed")
	// ErrTooBig reports a message over MaxData words.
	ErrTooBig = errors.New("pup: message exceeds MaxData words")
)

// Config tunes an Endpoint: how patient it is and how it numbers its
// connections. The zero value selects the defaults.
type Config struct {
	// MaxRTO caps the adaptive timeout and its exponential backoff
	// (default 120 ms).
	MaxRTO time.Duration
	// MaxRetries is the per-packet retransmission cap; one more silence
	// kills the connection with ErrRetriesExhausted (default 10).
	MaxRetries int
	// Seed seeds connection-id generation (mixed with the station
	// address, so equal seeds on different stations stay distinct).
	Seed uint64
}

// The transport's fixed timing and windows.
const (
	// recvWindow is the per-connection receive budget, in packets:
	// undelivered in-order messages plus buffered out-of-order ones. It is
	// advertised on every outbound packet; the advertisement is floored at
	// one packet so a closed window can never deadlock the conversation
	// (the one-in-flight trickle re-opens it as the application drains).
	// It equals sackSpan, so every buffered packet is SACK-visible.
	recvWindow = sackSpan
	// initRTO is the retransmission timeout used before the first RTT
	// sample lands: above a few full windows' serialization on the 3 Mb/s
	// wire. Once samples flow, the Jacobson estimator replaces it.
	initRTO = 40 * time.Millisecond
	// minRTO floors the adaptive timeout: below it, scheduling jitter
	// between polls would fire timers on packets that are merely waiting
	// their turn.
	minRTO = 10 * time.Millisecond
	// idleTick is how far Poll advances the simulated clock when it did no
	// work but timers are pending — the cost of one spin of the §2 poll
	// loop; without it a silent wire would freeze simulated time and no
	// timeout could ever fire.
	idleTick = 200 * time.Microsecond
	// ackDelay is how long a lone in-order data packet may wait for
	// company (or a reply to piggyback on) before it is acked anyway.
	ackDelay = 2 * time.Millisecond
)

// connKey identifies a connection: the remote station plus the id the
// dialing side chose. Two clients on one station multiplex by id; two
// stations may reuse ids freely.
type connKey struct {
	addr ether.Addr
	id   uint16
}

// Endpoint owns one station: it demultiplexes inbound packets onto
// connections and drives every timer during Poll. Endpoints are
// single-activity objects, polled from one activity at a time, like every
// other object on this machine.
type Endpoint struct {
	st    *ether.Station
	clock *sim.Clock
	cfg   Config
	rnd   *sim.Rand

	// window caps the unacked data packets per connection no matter what
	// cwnd and the peer allow (32); ackEvery acks every Nth in-order data
	// packet at once, bounding how much news a delayed ack can sit on (4);
	// initCwnd is a new connection's congestion window (2). Only tests
	// change them.
	window, ackEvery, initCwnd int

	conns map[connKey]*Conn
	// order lists live connections in creation order: every per-conn
	// sweep walks this slice, never the map, so timer firing order is
	// deterministic (altovet enforces the no-map-range rule here).
	order     []*Conn
	listening bool
	backlog   []*Conn

	// sendBuf is where every outbound payload is built. Station.Send copies
	// the payload onto the wire before it returns, so one buffer serves
	// every send; Conn.Send's MaxData check keeps data within it.
	sendBuf [ether.MaxPayload]ether.Word
}

// NewEndpoint builds an endpoint on a station. The clock is the station's
// network clock; cfg zero-fields take defaults.
func NewEndpoint(st *ether.Station, cfg Config) *Endpoint {
	if cfg.MaxRTO <= 0 {
		cfg.MaxRTO = 120 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 10
	}
	return &Endpoint{
		st:       st,
		clock:    st.Clock(),
		cfg:      cfg,
		rnd:      sim.NewRand(cfg.Seed ^ (uint64(st.Addr()) << 32)),
		window:   32,
		ackEvery: 4,
		initCwnd: 2,
		conns:    map[connKey]*Conn{},
	}
}

// Station returns the endpoint's station.
func (e *Endpoint) Station() *ether.Station { return e.st }

// Config returns the endpoint's configuration with every default filled in,
// so a layer above can size its own patience from the transport's budget.
func (e *Endpoint) Config() Config { return e.cfg }

// rec reaches the medium's flight recorder (nil when tracing is off).
func (e *Endpoint) rec() *trace.Recorder { return e.st.TraceRecorder() }

// Listen makes the endpoint accept inbound Opens; Accept collects them.
func (e *Endpoint) Listen() { e.listening = true }

// Accept pops the oldest newly-established inbound connection, if any.
func (e *Endpoint) Accept() (*Conn, bool) {
	if len(e.backlog) == 0 {
		return nil, false
	}
	c := e.backlog[0]
	e.backlog = e.backlog[1:]
	return c, true
}

// Dial opens a connection to a remote station. The connection is usable
// immediately — data queued before the OpenAck arrives rides the same
// retransmission timers as everything else.
func (e *Endpoint) Dial(remote ether.Addr) (*Conn, error) {
	var id uint16
	for {
		id = e.rnd.Word()
		if _, taken := e.conns[connKey{remote, id}]; !taken {
			break
		}
	}
	c := e.newConn(remote, id, StateOpening, false)
	e.add(c)
	if err := c.sendCtrl(TypeOpen); err != nil {
		return nil, err
	}
	e.rec().Add("pup.open", 1)
	return c, nil
}

// newConn builds a connection with its windows at their initial positions:
// cwnd at initCwnd, ssthresh at the window cap (slow start probes upward
// until loss says stop), and the peer's window assumed open until its
// first advertisement arrives.
func (e *Endpoint) newConn(remote ether.Addr, id uint16, st State, accepted bool) *Conn {
	return &Conn{
		ep:       e,
		remote:   remote,
		id:       id,
		state:    st,
		accepted: accepted,
		cwnd:     e.initCwnd,
		ssthresh: e.window,
		peerAwnd: recvWindow,
	}
}

// add registers a connection in both indexes.
func (e *Endpoint) add(c *Conn) {
	e.conns[connKey{c.remote, c.id}] = c
	e.order = append(e.order, c)
}

// Poll is the endpoint's activity: it drains the station's input queue,
// fires due retransmission and delayed-ack timers, and reaps dead
// connections. It returns whether it did any work, so activity-switching
// loops can tell busy from idle; when it did none but timers are pending
// it advances the simulated clock by one idleTick (the spin cost that lets
// timeouts fire on a silent wire).
func (e *Endpoint) Poll() (bool, error) {
	worked := false
	// Drain the whole input queue: a server station under load takes
	// packets faster than one per spin, or its clients' timers fire on
	// queued-but-unread data and the wire fills with spurious retransmits.
	for {
		pkt, ok := e.st.Recv()
		if !ok {
			break
		}
		worked = true
		// dispatch keeps nothing of the packet (handleData copies the
		// message out), so its buffer goes straight back to the pool.
		err := e.dispatch(pkt)
		ether.Free(pkt.Payload)
		if err != nil {
			return true, err
		}
	}
	now := e.clock.Now()
	waiting := false
	for _, c := range e.order {
		w, wait, err := c.tick(now)
		worked = worked || w
		waiting = waiting || wait
		if err != nil {
			return true, err
		}
	}
	e.reap()
	if !worked && waiting {
		e.clock.Advance(idleTick)
		// Surface the earliest pending timer so an event-driven scheduler
		// (internal/fleet) can jump the clock straight to the deadline
		// instead of burning idle ticks up to it. The single-machine path
		// never reads the request; the cost is one atomic min per idle poll.
		for _, c := range e.order {
			if d, ok := c.nextDeadline(); ok {
				e.clock.RequestWake(d)
			}
		}
	}
	return worked, nil
}

// reap drops closed connections from the sweep order and the demux map.
// Late control packets for a reaped connection are answered statelessly.
func (e *Endpoint) reap() {
	live := e.order[:0]
	for _, c := range e.order {
		if c.state == StateClosed {
			delete(e.conns, connKey{c.remote, c.id})
			continue
		}
		live = append(live, c)
	}
	e.order = live
}

// dispatch routes one inbound packet. Damaged packets (checksum mismatch)
// are dropped here — corruption becomes loss, and loss is what the timers
// already repair. Any packet from a live peer carries ack state (cumulative
// ack, advertised window, SACK mask), processed before the packet's own
// business.
func (e *Endpoint) dispatch(pkt ether.Packet) error {
	if !pkt.SumOK() {
		e.rec().Add("pup.checksum.drop", 1)
		return nil
	}
	if len(pkt.Payload) < headerWords {
		return nil // not ours, or truncated beyond use
	}
	id, seq := pkt.Payload[0], pkt.Payload[1]
	ack, awnd := pkt.Payload[2], int(pkt.Payload[3])
	sackLo, sackHi := pkt.Payload[4], pkt.Payload[5]
	flow := pkt.Payload[6]
	c := e.conns[connKey{pkt.Src, id}]
	switch pkt.Type {
	case TypeOpen:
		return e.handleOpen(pkt.Src, id, flow, c)
	case TypeOpenAck:
		// An OpenAck settles a pending Open in any state: a conn closed
		// before its first OpenAck arrived still needs the Open off its
		// control timer, or its Close handshake never starts.
		if c != nil && c.ctrl.kind == TypeOpen {
			if c.state == StateOpening {
				c.state = StateOpen
			}
			c.peerAwnd = awnd
			c.ctrl = ctrlState{}
		}
		return nil
	case TypeData:
		if c == nil {
			return nil // conn unknown (not yet open, or long gone): sender retries
		}
		if err := c.handleAckInfo(ack, awnd, sackLo, sackHi); err != nil {
			return err
		}
		return c.handleData(seq, flow, pkt.Payload[headerWords:])
	case TypeAck:
		if c != nil {
			return c.handleAckInfo(ack, awnd, sackLo, sackHi)
		}
		return nil
	case TypeClose:
		if c != nil {
			c.state = StateClosed
			c.ctrl = ctrlState{}
		}
		// Acknowledge even for unknown connections: the peer may be
		// retransmitting a Close whose ack was lost after we reaped.
		return e.sendStateless(pkt.Src, TypeCloseAck, id, flow)
	case TypeCloseAck:
		if c != nil && c.state == StateClosing {
			c.state = StateClosed
			c.ctrl = ctrlState{}
			e.rec().Add("pup.close", 1)
		}
		return nil
	}
	return nil
}

// handleOpen creates (or re-confirms) an inbound connection.
func (e *Endpoint) handleOpen(from ether.Addr, id, flow uint16, c *Conn) error {
	if c == nil {
		if !e.listening {
			return nil
		}
		c = e.newConn(from, id, StateOpen, true)
		e.add(c)
		e.backlog = append(e.backlog, c)
		e.rec().Add("pup.accept", 1)
	}
	// The OpenAck rides the connection's real header, so the dialer learns
	// our receive window before its first data burst. A duplicated Open
	// (the first ack was lost) just elicits another.
	return e.sendPacket(c, TypeOpenAck, 0, flow, nil)
}

// sendPacket transmits one packet on a connection, stamping the full ack
// state — cumulative ack, advertised window, SACK mask — into the header.
// Every outbound packet is therefore also an ack: a data packet or control
// packet going the other way satisfies any pending delayed ack, which is
// cleared here. Every send charges wire time on the shared clock, which is
// also what drives the timers forward.
func (e *Endpoint) sendPacket(c *Conn, typ ether.Word, seq, flow uint16, data []ether.Word) error {
	awnd := c.awnd()
	sackLo, sackHi := c.sackMask()
	payload := e.sendBuf[:headerWords+len(data)]
	payload[0], payload[1], payload[2] = c.id, seq, c.recvNext
	payload[3], payload[4], payload[5] = ether.Word(awnd), sackLo, sackHi
	payload[6] = flow
	copy(payload[headerWords:], data)
	c.ackPending = 0
	c.ackArmed = false
	return e.st.Send(ether.Packet{Dst: c.remote, Type: typ, Flow: flow, Payload: payload})
}

// sendStateless answers for a connection this endpoint no longer (or never)
// holds: no ack state to report, the window advertisement is the config
// default. Used for CloseAcks to reaped connections.
func (e *Endpoint) sendStateless(to ether.Addr, typ ether.Word, id, flow uint16) error {
	payload := e.sendBuf[:headerWords]
	clear(payload)
	payload[0] = id
	payload[3] = recvWindow
	payload[6] = flow
	return e.st.Send(ether.Packet{Dst: to, Type: typ, Flow: flow, Payload: payload})
}
