// Package ether simulates the experimental 3 Mb/s Ethernet the Alto was
// attached to. The paper standardizes "the representation ... of packets on
// the network" below all software (§1) and uses the network in its
// activity-switching example (§4): a printing server whose spooler task
// accepts files from the network while its printer task runs.
//
// The model is a broadcast medium: every station sees every packet
// (filtering on the destination address), transmission charges the shared
// virtual clock at the wire rate, and stations poll their input queues —
// there are no interrupts beyond the keyboard on this machine.
package ether

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// Word is the unit of packet payloads, as everywhere in the system.
type Word = uint16

// Addr is a station address. Address 0 broadcasts.
type Addr = uint16

// Broadcast is the all-stations destination.
const Broadcast Addr = 0

// WireTime is the serialization time per 16-bit word at 3 Mb/s
// (16 bits / 3,000,000 bits per second ≈ 5.33 µs).
const WireTime = 16 * time.Second / 3_000_000

// HeaderWords is the packet header size on the wire (dst, src, type, check).
const HeaderWords = 4

// MinLatency is the shortest possible gap between a send starting and any
// station observing its arrival: the serialization time of a bare header.
// It is the lookahead bound of conservative parallel simulation — two
// machines whose next events are closer together than MinLatency cannot be
// run concurrently without risking a causality violation, and two that are
// farther apart can.
const MinLatency = HeaderWords * WireTime

// MaxPayload bounds a packet to roughly the Alto's packet buffer: one page.
const MaxPayload = 256

// Packet is the standardized wire representation: destination, source, a
// type word, a checksum word, and up to a page of payload words.
//
// Flow is a trace sideband, not a wire field: the reliable transport carries
// its causal flow ID as a word *inside* its payload header (charged and
// checksummed there) and mirrors it here so the medium can stamp its own
// send/receive/fault events onto the flow without parsing payloads. It adds
// no serialization time and does not enter Sum.
type Packet struct {
	Dst     Addr
	Src     Addr
	Type    Word
	Check   Word // filled by Send; verify with SumOK after Recv
	Flow    Word // trace sideband: the transport's causal flow ID, 0 = none
	Payload []Word
}

// Sum computes the packet's checksum word: a ones-complement fold over the
// header and payload, PUP-style. The checksum is what makes corruption on a
// faulty medium *detectable* rather than silent — a reliable transport
// drops a packet whose recorded Check no longer matches and lets
// retransmission repair the loss.
func (p Packet) Sum() Word {
	s := uint32(p.Dst) + uint32(p.Src) + uint32(p.Type) + uint32(len(p.Payload)&0xFFFF)
	for _, w := range p.Payload {
		s += uint32(w)
	}
	for s > 0xFFFF {
		s = (s & 0xFFFF) + (s >> 16)
	}
	return ^Word(s & 0xFFFF)
}

// SumOK reports whether the packet's recorded checksum matches its content.
func (p Packet) SumOK() bool { return p.Check == p.Sum() }

// Errors.
var (
	// ErrTooBig reports a payload over MaxPayload words.
	ErrTooBig = errors.New("ether: packet too big")
	// ErrNoStation reports a send from an unattached station.
	ErrNoStation = errors.New("ether: station not attached")
	// ErrAddrInUse reports a duplicate station address.
	ErrAddrInUse = errors.New("ether: address in use")
	// ErrHooked reports a station whose delivery hook is already taken.
	ErrHooked = errors.New("ether: delivery hook already installed")
)

// Network is the shared medium.
type Network struct {
	mu       sync.Mutex
	clock    *sim.Clock
	stations map[Addr]*Station
	// order holds the attached stations sorted by address. Broadcast
	// delivery and fault-verdict draws walk this slice, never the map, so
	// fan-out order is (address, arrival sequence) by construction — it
	// cannot regress to map iteration order when stations join dynamically.
	order []*Station
	sent  int64
	words int64

	// rec is the attached flight recorder (nil: tracing off). busyUntil is
	// the simulated time the wire frees up; a send that begins earlier is
	// recorded as a collision. The probe is bookkeeping only — the medium
	// still delivers every packet, it just becomes visible in the trace
	// that two stations contended for the wire.
	rec       *trace.Recorder
	busyUntil time.Duration

	// fault is the attached fault model (nil: the perfect medium). Verdicts
	// are drawn under mu, in address order, so the PRNG consumption order —
	// and with it every drop, dup, delay and bit-flip — replays exactly.
	fault *FaultMedium

	// fleet switches the medium into fleet mode: stations run on their own
	// clocks, every delivery is a scheduled event released at its arrival
	// time, fault verdicts come from per-sender PRNG streams, and wire
	// trace events land on the *sender's* recorder. horizon is the current
	// lockstep window's upper bound: no station observes an arrival at or
	// beyond it, which is what makes delivery independent of how machine
	// executions interleave on the host. See internal/fleet.
	fleet   bool
	horizon atomic.Int64 // window horizon in ns; only consulted in fleet mode
}

// SetFleetMode switches the medium between the shared-clock single-machine
// model (false, the default) and the fleet event model (true). In fleet
// mode the collision probe and queue-depth gauge are off — both read
// cross-machine state whose momentary value depends on host interleaving —
// and the delivery horizon starts unbounded until a scheduler sets it.
func (n *Network) SetFleetMode(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fleet = on
	n.horizon.Store(int64(^uint64(0) >> 1)) // unbounded until SetHorizon
}

// SetHorizon publishes the current lockstep window's upper bound. Stations
// only promote deliveries whose arrival time is strictly below it, so a
// machine whose local clock has raced past the window cannot observe a
// packet that a concurrently executing machine may or may not have sent yet.
func (n *Network) SetHorizon(t time.Duration) {
	n.horizon.Store(int64(t))
}

// SetRecorder attaches a flight recorder to the medium (nil detaches).
func (n *Network) SetRecorder(r *trace.Recorder) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rec = r
}

// TraceRecorder implements trace.Source.
func (n *Network) TraceRecorder() *trace.Recorder {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rec
}

// New creates a network advancing clock (nil for a private clock).
func New(clock *sim.Clock) *Network {
	if clock == nil {
		clock = sim.NewClock()
	}
	return &Network{clock: clock, stations: map[Addr]*Station{}}
}

// Clock returns the network's clock.
func (n *Network) Clock() *sim.Clock { return n.clock }

// Stats returns packets and words carried so far.
func (n *Network) Stats() (packets, words int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.words
}

// Station is one attachment point: an input queue plus the network.
type Station struct {
	net  *Network
	addr Addr

	// clk is the station's own clock in fleet mode (nil: the network's
	// shared clock). txSeq counts this station's sends; it is guarded by
	// the *network* mutex because it is assigned on the send path, and it
	// orders same-arrival-time deliveries from the same sender.
	clk   *sim.Clock
	txSeq uint64

	mu   sync.Mutex
	in   []Packet
	held []heldPacket // scheduled deliveries awaiting their release time
	// heldMin is the least release time in held, meaningful only while held
	// is non-empty: lowered on every append, recomputed on every promotion.
	heldMin time.Duration
	due     []heldPacket // promoteLocked's scratch, reused call to call
	// rec is the station's own recorder, outside mu: every send and receive
	// reads it, and it changes only when a tracer attaches or detaches.
	rec atomic.Pointer[trace.Recorder]
	// onDeliver is called after each Send that schedules a delivery here:
	// the fleet scheduler's cue that this station's earliest arrival moved.
	onDeliver func()
}

// heldPacket is a delivery awaiting its release time: fault-delayed packets
// in the shared-clock model, every delivery in fleet mode. It joins the
// input queue the first time the station polls at or after release, in
// (release, source address, sender sequence) order.
type heldPacket struct {
	release time.Duration
	src     Addr
	seq     uint64 // the sender's txSeq for this packet
	pkt     Packet
}

// SetRecorder gives the station its own flight recorder (nil reverts to the
// medium's). In a fleet, each machine's station records into that machine's
// recorder while the shared wire keeps its own — the split that lets
// internal/scope merge per-machine timelines into one multi-process trace.
func (s *Station) SetRecorder(r *trace.Recorder) { s.rec.Store(r) }

// OnDeliver installs f as the station's delivery hook: Send calls it, with
// no lock held, after it has queued or scheduled a delivery to the station.
// A station has at most one hook; installing a second fails with ErrHooked.
// OnDeliver(nil) removes the hook.
func (s *Station) OnDeliver(f func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f != nil && s.onDeliver != nil {
		return ErrHooked
	}
	s.onDeliver = f
	return nil
}

// TraceRecorder implements trace.Source: the station's own recorder when one
// is attached, else the medium's, so layers built over stations (the
// reliable transport, the file server) trace without new plumbing. The
// station's recorder is an atomic load; only the fallback takes a lock, the
// network's, so call it without holding the station's lock.
func (s *Station) TraceRecorder() *trace.Recorder {
	if r := s.rec.Load(); r != nil {
		return r
	}
	return s.net.TraceRecorder()
}

// Clock returns the station's clock: its own in fleet mode, else the shared
// network clock.
func (s *Station) Clock() *sim.Clock {
	if s.clk != nil {
		return s.clk
	}
	return s.net.clock
}

// SetClock gives the station its own clock, making sends and receives charge
// and read that machine's time instead of the network's. Set it before any
// traffic; in a fleet each machine's station is bound to that machine's
// clock at build time.
func (s *Station) SetClock(c *sim.Clock) { s.clk = c }

// Attach adds a station at addr (which must be nonzero and unused).
func (n *Network) Attach(addr Addr) (*Station, error) {
	if addr == Broadcast {
		return nil, fmt.Errorf("%w: 0 is the broadcast address", ErrAddrInUse)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.stations[addr]; dup {
		return nil, fmt.Errorf("%w: %d", ErrAddrInUse, addr)
	}
	s := &Station{net: n, addr: addr}
	n.stations[addr] = s
	at := sort.Search(len(n.order), func(i int) bool { return n.order[i].addr > addr })
	n.order = append(n.order, nil)
	copy(n.order[at+1:], n.order[at:])
	n.order[at] = s
	return s, nil
}

// Detach removes the station from the medium.
func (s *Station) Detach() {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	delete(s.net.stations, s.addr)
	for i, st := range s.net.order {
		if st == s {
			s.net.order = append(s.net.order[:i], s.net.order[i+1:]...)
			break
		}
	}
}

// Addr returns the station's address.
func (s *Station) Addr() Addr { return s.addr }

// Send transmits a packet (source filled in), charging wire time against
// the sender's clock.
func (s *Station) Send(p Packet) error {
	if len(p.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d words", ErrTooBig, len(p.Payload))
	}
	p.Src = s.addr
	// Snapshot the sender's recorder before taking the network lock (the
	// network lock never nests inside a station lock); fleet mode stamps
	// wire events onto the sending machine's timeline.
	srec := s.TraceRecorder()
	clock := s.Clock()
	n := s.net
	n.mu.Lock()
	if n.stations[s.addr] != s {
		n.mu.Unlock()
		return ErrNoStation
	}
	fleet := n.fleet
	n.sent++
	n.words += int64(len(p.Payload) + HeaderWords)
	wireWords := len(p.Payload) + HeaderWords
	dur := time.Duration(wireWords) * WireTime
	start := clock.Now()
	s.txSeq++
	seq := s.txSeq
	rec := n.rec
	if fleet {
		rec = srec
	}
	if rec != nil {
		// The collision probe compares against the last send's end time,
		// cross-machine state that is only meaningful on a shared clock;
		// in fleet mode the stations' clocks are mutually unordered, so
		// the probe is off.
		if !fleet {
			if start < n.busyUntil {
				rec.EmitFlow(start, trace.KindEtherCollision, "", int64(p.Dst), int64(s.addr), int64(p.Flow))
				rec.Add("ether.collision", 1)
			}
			if end := start + dur; end > n.busyUntil {
				n.busyUntil = end
			}
		}
		rec.EmitSpanFlow(start, dur, trace.KindEtherSend, "", int64(p.Dst), int64(wireWords), int64(p.Flow))
		rec.Add("ether.send", 1)
		rec.Add("ether.words", int64(wireWords))
	}
	// Copy the payload (the wire serializes, it does not alias) and stamp
	// the checksum word over the serialized content.
	cp := p
	cp.Payload = append([]Word(nil), p.Payload...)
	cp.Check = cp.Sum()
	// Destinations in address order: n.order is maintained sorted, so the
	// fan-out — and with it the fault model's verdict draw order — is
	// (address, arrival sequence) by construction. A unicast has at most
	// one destination, found by address; its slices stay on the stack.
	var oneDst [1]*Station
	var oneDel [1]delivery
	dsts, dels := oneDst[:0], oneDel[:0]
	if p.Dst == Broadcast {
		for _, st := range n.order {
			if st != s {
				dsts = append(dsts, st)
			}
		}
	} else if st := n.stations[p.Dst]; st != nil && st != s {
		dsts = append(dsts, st)
	}
	arrive := start + dur
	for _, st := range dsts {
		d := delivery{st: st, pkt: cp, copies: 1}
		if n.fault != nil {
			v := n.fault.judge(s.addr, fleet, len(cp.Payload))
			// Every non-clean verdict lands on the wire's timeline as an
			// instant stamped with the packet's flow: injected loss stays
			// on the causal chain instead of vanishing between send and a
			// retransmit that seems to come from nowhere.
			if v.drop {
				rec.EmitFlow(start, trace.KindEtherFault, "drop", int64(st.addr), v.idx, int64(cp.Flow))
				rec.Add("ether.drop", 1)
				continue
			}
			if v.dup {
				d.copies = 2
				rec.EmitFlow(start, trace.KindEtherFault, "dup", int64(st.addr), v.idx, int64(cp.Flow))
				rec.Add("ether.dup", 1)
			}
			if v.corrupt {
				d.pkt.Payload = append([]Word(nil), cp.Payload...)
				v.mangle(&d.pkt)
				rec.EmitFlow(start, trace.KindEtherFault, "corrupt", int64(st.addr), v.idx, int64(cp.Flow))
				rec.Add("ether.corrupt", 1)
			}
			if v.delay > 0 {
				d.release = arrive + v.delay
				rec.EmitFlow(start, trace.KindEtherFault, "delay", int64(st.addr), v.idx, int64(cp.Flow))
				rec.Add("ether.delay", 1)
			}
		}
		dels = append(dels, d)
	}
	n.mu.Unlock()

	clock.Advance(dur)
	for _, d := range dels {
		release := d.release
		if fleet && release == 0 {
			// Fleet mode: every delivery is a scheduled event released at
			// its arrival time. The receiver — on its own clock — promotes
			// it when its time passes arrival, never earlier, so delivery
			// does not depend on which machine's code ran first on the host.
			release = arrive
		}
		d.st.mu.Lock()
		for c := 0; c < d.copies; c++ {
			if release > 0 {
				if len(d.st.held) == 0 || release < d.st.heldMin {
					d.st.heldMin = release
				}
				d.st.held = append(d.st.held, heldPacket{release: release, src: s.addr, seq: seq, pkt: d.pkt})
			} else {
				d.st.in = append(d.st.in, d.pkt)
			}
		}
		depth := len(d.st.in)
		hook := d.st.onDeliver
		d.st.mu.Unlock()
		if hook != nil {
			hook()
		}
		if !fleet {
			// The queue-depth gauge reads the receiver's momentary backlog,
			// which under concurrent senders depends on host interleaving.
			rec.Observe("ether.queue.depth", float64(depth))
		}
	}
	return nil
}

// delivery is one destination's share of a send, after the fault model has
// spoken: how many copies, possibly corrupted, possibly held until release.
type delivery struct {
	st      *Station
	pkt     Packet
	copies  int
	release time.Duration
}

// promoteLocked moves held packets whose release time has passed into the
// input queue, in (release, source address, sender sequence) order — a
// total order over deliveries that does not depend on the order concurrent
// senders appended them. In fleet mode a packet additionally stays held
// until the lockstep window's horizon covers its arrival, so a machine
// whose clock overran the window cannot observe a racing delivery.
// Caller holds s.mu.
func (s *Station) promoteLocked(now time.Duration) {
	if len(s.held) == 0 {
		return
	}
	limit := now
	s.net.fleetLimit(&limit)
	if s.heldMin > limit {
		return // nothing due: the common case for a polling receiver
	}
	due := s.due[:0]
	kept := s.held[:0]
	for _, h := range s.held {
		if h.release <= limit {
			due = append(due, h)
		} else {
			if len(kept) == 0 || h.release < s.heldMin {
				s.heldMin = h.release
			}
			kept = append(kept, h)
		}
	}
	s.held = kept
	slices.SortFunc(due, func(a, b heldPacket) int {
		if c := cmp.Compare(a.release, b.release); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, h := range due {
		s.in = append(s.in, h.pkt)
	}
	clear(due) // the scratch must not pin delivered payloads
	s.due = due[:0]
}

// fleetLimit caps *limit at just below the window horizon when the medium
// is in fleet mode. In the shared-clock model the limit is the caller's
// clock reading, untouched.
func (n *Network) fleetLimit(limit *time.Duration) {
	if !n.fleet {
		return
	}
	if h := time.Duration(n.horizon.Load()); h-1 < *limit {
		*limit = h - 1 // strictly below the horizon
	}
}

// EarliestArrival reports the earliest observable or scheduled delivery on
// the station: zero (and true) if packets are already queued, else the
// minimum release time among held deliveries, kept current as deliveries
// are scheduled and promoted so the answer costs O(1). The fleet scheduler
// reads it after the owning machine runs and whenever the station's delivery
// hook fires, to wake a machine that is blocked waiting for traffic.
func (s *Station) EarliestArrival() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.in) > 0 {
		return 0, true
	}
	if len(s.held) == 0 {
		return 0, false
	}
	return s.heldMin, true
}

// Recv polls the input queue, returning the oldest packet if any. The
// delivery is recorded on the station's own recorder when one is attached —
// in a fleet, arrivals belong to the receiving machine's timeline.
func (s *Station) Recv() (Packet, bool) {
	// Snapshot the recorder before taking s.mu: the network lock never
	// nests inside a station lock.
	rec := s.TraceRecorder()
	now := s.Clock().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoteLocked(now)
	if len(s.in) == 0 {
		return Packet{}, false
	}
	p := s.in[0]
	s.in = s.in[1:]
	if rec != nil {
		rec.EmitFlow(now, trace.KindEtherRecv, "", int64(p.Src), int64(len(p.Payload)+HeaderWords), int64(p.Flow))
		rec.Add("ether.recv", 1)
	}
	return p, true
}

// Pending reports queued packet count (fault-delayed packets count once
// their release time has passed).
func (s *Station) Pending() int {
	now := s.Clock().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoteLocked(now)
	return len(s.in)
}

// PackString converts a string into payload words (length-prefixed, two
// bytes per word) and back — the standardized representation both ends
// share regardless of their implementation language (§1).
func PackString(str string) []Word {
	if len(str) > 2*MaxPayload-2 {
		str = str[:2*MaxPayload-2]
	}
	out := make([]Word, 1+(len(str)+1)/2)
	out[0] = Word(len(str))
	for i := 0; i < len(str); i++ {
		if i%2 == 0 {
			out[1+i/2] |= Word(str[i]) << 8
		} else {
			out[1+i/2] |= Word(str[i])
		}
	}
	return out
}

// UnpackString is the inverse of PackString.
func UnpackString(w []Word) (string, error) {
	if len(w) == 0 {
		return "", errors.New("ether: empty payload")
	}
	n := int(w[0])
	if 1+(n+1)/2 > len(w) {
		return "", fmt.Errorf("ether: truncated string: %d bytes in %d words", n, len(w))
	}
	buf := make([]byte, n)
	for i := 0; i < n; i++ {
		word := w[1+i/2]
		if i%2 == 0 {
			buf[i] = byte(word >> 8)
		} else {
			buf[i] = byte(word)
		}
	}
	return string(buf), nil
}
