// Package ether simulates the experimental 3 Mb/s Ethernet the Alto was
// attached to. The paper standardizes "the representation ... of packets on
// the network" below all software (§1) and uses the network in its
// activity-switching example (§4): a printing server whose spooler task
// accepts files from the network while its printer task runs.
//
// The model is a broadcast medium: every station sees every packet
// (filtering on the destination address), transmission charges the sender's
// clock at the wire rate, every delivery is held until its arrival time on
// the receiver's clock, and stations poll their input queues — there are no
// interrupts beyond the keyboard on this machine. Each station may run on a
// clock of its own (one Alto per clock) or share the network's; the model
// is the same either way.
package ether

import (
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

// The counters and histograms this package records, interned once.
var (
	cCorrupt = trace.NewCounter("ether.corrupt")
	cDelay   = trace.NewCounter("ether.delay")
	cDrop    = trace.NewCounter("ether.drop")
	cDup     = trace.NewCounter("ether.dup")
	cRecv    = trace.NewCounter("ether.recv")
	cSend    = trace.NewCounter("ether.send")
	cWords   = trace.NewCounter("ether.words")
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

// payloads pools page-sized payload buffers: the Alto's one packet buffer,
// once per packet in flight. It is process-wide rather than per machine so
// the collector can empty it; no simulated result depends on which buffer a
// copy lands in, because Clone writes every word it hands out.
var payloads = sync.Pool{New: func() any { return new([MaxPayload]Word) }}

// Clone returns a copy of src (at most MaxPayload words) in a pool buffer,
// or nil when src is empty. The caller owns the buffer until it hands it to
// the next owner or back to the pool with Free.
func Clone(src []Word) []Word {
	if len(src) == 0 {
		return nil
	}
	b := payloads.Get().(*[MaxPayload]Word)[:len(src)]
	copy(b, src)
	return b
}

// Free hands a buffer that Recv or Clone returned back to the pool. The
// caller must not touch the buffer afterwards, nor free it twice. A caller
// that never frees loses nothing but the reuse: the buffer is garbage, as
// any slice would be. Slices not shaped like a pool buffer are ignored.
func Free(buf []Word) {
	if cap(buf) == MaxPayload {
		payloads.Put((*[MaxPayload]Word)(buf[:MaxPayload]))
	}
}

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

	// fault is the attached fault model (nil: the perfect medium). Each
	// sender draws its verdicts from its own stream, in its own program
	// order, under mu and in destination-address order, so every drop,
	// dup, delay and bit-flip replays exactly however senders interleave.
	fault *FaultMedium

	// horizon is the current lockstep window's upper bound: no station
	// observes an arrival at or beyond it, which is what makes delivery
	// independent of how machine executions interleave on the host. It is
	// unbounded until a scheduler sets it. See internal/fleet.
	horizon atomic.Int64 // in ns
}

// SetHorizon publishes the current lockstep window's upper bound. Stations
// only promote deliveries whose arrival time is strictly below it, so a
// machine whose local clock has raced past the window cannot observe a
// packet that a concurrently executing machine may or may not have sent yet.
func (n *Network) SetHorizon(t time.Duration) {
	n.horizon.Store(int64(t))
}

// New creates a network advancing clock (nil for a private clock).
func New(clock *sim.Clock) *Network {
	if clock == nil {
		clock = sim.NewClock()
	}
	n := &Network{clock: clock, stations: map[Addr]*Station{}}
	n.horizon.Store(int64(^uint64(0) >> 1)) // unbounded until SetHorizon
	return n
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

	// clk is the station's own clock (nil: the network's). txSeq counts
	// this station's sends; it is guarded by the *network* mutex because it
	// is assigned on the send path, and it orders same-arrival-time
	// deliveries from the same sender.
	clk   *sim.Clock
	txSeq uint64

	mu sync.Mutex
	// in is the input queue: in[head:] are the packets not yet received.
	// Recv advances head and zeroes the slot it hands out; an emptied
	// queue resets to in[:0], so the array is reused rather than regrown.
	in   []Packet
	head int
	held heldHeap // scheduled deliveries awaiting their release time
	// rec is the station's recorder, outside mu: every send and receive
	// reads it, and it changes only when a tracer attaches or detaches.
	rec atomic.Pointer[trace.Recorder]
	// onDeliver is called after each Send that schedules a delivery here:
	// the fleet scheduler's cue that this station's earliest arrival moved.
	onDeliver func()
}

// heldPacket is a delivery awaiting its release time, its arrival plus any
// fault delay. It joins the input queue the first time the station polls at
// or after release, in (release, source address, sender sequence) order.
type heldPacket struct {
	release time.Duration
	src     Addr
	seq     uint64 // the sender's txSeq for this packet
	pkt     Packet
}

// before is the (release, source address, sender sequence) order. It is
// total over distinct sends; the two copies of a duplicated delivery share
// a key but carry equal content, so either may pop first.
func (h *heldPacket) before(o *heldPacket) bool {
	if h.release != o.release {
		return h.release < o.release
	}
	if h.src != o.src {
		return h.src < o.src
	}
	return h.seq < o.seq
}

// heldHeap is a binary min-heap of held deliveries under before: the
// earliest release is held[0], and promotion pops in exactly the order a
// sort of the due deliveries would produce.
type heldHeap []heldPacket

// push and pop move a hole rather than swapping: each level of the sift
// copies one 64-byte entry instead of exchanging two.
func (q *heldHeap) push(h heldPacket) {
	*q = append(*q, h)
	s := *q
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = h
}

// pop removes and returns the least delivery. The vacated slot is zeroed
// so the array does not pin a delivered payload.
func (q *heldHeap) pop() Packet {
	s := *q
	top := s[0].pkt
	n := len(s) - 1
	last := s[n]
	s[n] = heldPacket{}
	s = s[:n]
	*q = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// SetRecorder gives the station a flight recorder (nil: tracing off). The
// station's sends, fault verdicts and receives record there: each machine's
// station records into that machine's recorder, the split that lets
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

// TraceRecorder implements trace.Source, so layers built over stations (the
// reliable transport, the file server) trace without new plumbing.
func (s *Station) TraceRecorder() *trace.Recorder { return s.rec.Load() }

// Clock returns the station's clock: its own when one is set, else the
// network's.
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
	// Stamp the checksum word over the content every copy will carry.
	p.Check = p.Sum()
	// Wire events belong to the sending machine's timeline.
	rec := s.TraceRecorder()
	clock := s.Clock()
	n := s.net
	n.mu.Lock()
	if n.stations[s.addr] != s {
		n.mu.Unlock()
		return ErrNoStation
	}
	n.sent++
	n.words += int64(len(p.Payload) + HeaderWords)
	wireWords := len(p.Payload) + HeaderWords
	dur := time.Duration(wireWords) * WireTime
	start := clock.Now()
	s.txSeq++
	seq := s.txSeq
	if rec != nil {
		rec.EmitSpanFlow(start, dur, trace.KindEtherSend, "", int64(p.Dst), int64(wireWords), int64(p.Flow))
		rec.Add(cSend, 1)
		rec.Add(cWords, int64(wireWords))
	}
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
		d := delivery{st: st}
		if n.fault != nil {
			v := n.fault.judge(s.addr, len(p.Payload))
			d.v = v
			// Every non-clean verdict lands on the sender's timeline as an
			// instant stamped with the packet's flow: injected loss stays
			// on the causal chain instead of vanishing between send and a
			// retransmit that seems to come from nowhere.
			if v.drop {
				rec.EmitFlow(start, trace.KindEtherFault, "drop", int64(st.addr), v.idx, int64(p.Flow))
				rec.Add(cDrop, 1)
				continue
			}
			if v.dup {
				rec.EmitFlow(start, trace.KindEtherFault, "dup", int64(st.addr), v.idx, int64(p.Flow))
				rec.Add(cDup, 1)
			}
			if v.corrupt {
				rec.EmitFlow(start, trace.KindEtherFault, "corrupt", int64(st.addr), v.idx, int64(p.Flow))
				rec.Add(cCorrupt, 1)
			}
			if v.delay > 0 {
				rec.EmitFlow(start, trace.KindEtherFault, "delay", int64(st.addr), v.idx, int64(p.Flow))
				rec.Add(cDelay, 1)
			}
		}
		dels = append(dels, d)
	}
	n.mu.Unlock()

	clock.Advance(dur)
	for _, d := range dels {
		// Every delivery is a scheduled event released at its arrival time
		// (plus any fault delay). The receiver — on its own clock — promotes
		// it when its time passes release, never earlier, so delivery does
		// not depend on which machine's code ran first on the host.
		release := arrive + d.v.delay
		// Every delivered copy is a payload buffer of its own (the wire
		// serializes, it does not alias), filled before the receiver's lock
		// is taken: each copy of a duplicate, and each broadcast
		// destination's packet, has exactly one owner.
		copies := 1
		if d.v.dup {
			copies = 2
		}
		var pkts [2]Packet
		for c := range copies {
			pkts[c] = p
			pkts[c].Payload = Clone(p.Payload)
			if d.v.corrupt {
				d.v.mangle(&pkts[c])
			}
		}
		d.st.mu.Lock()
		for _, q := range pkts[:copies] {
			d.st.held.push(heldPacket{release: release, src: s.addr, seq: seq, pkt: q})
		}
		hook := d.st.onDeliver
		d.st.mu.Unlock()
		if hook != nil {
			hook()
		}
	}
	return nil
}

// delivery is one destination's share of a send, with the fault model's
// verdict on it (the zero verdict on a perfect medium): one copy or two,
// possibly corrupted, possibly held past arrival.
type delivery struct {
	st *Station
	v  verdict
}

// promoteLocked moves held packets whose release time has passed into the
// input queue, in (release, source address, sender sequence) order — a
// total order over deliveries that does not depend on the order concurrent
// senders appended them. A packet also stays held until the lockstep
// window's horizon covers its arrival, so a machine whose clock overran
// the window cannot observe a racing delivery. Caller holds s.mu.
func (s *Station) promoteLocked(now time.Duration) {
	if len(s.held) == 0 {
		return
	}
	limit := min(now, time.Duration(s.net.horizon.Load())-1) // strictly below the horizon
	for len(s.held) > 0 && s.held[0].release <= limit {
		s.enqueueLocked(s.held.pop())
	}
}

// enqueueLocked appends p to the input queue. A full array whose front is
// at least half received slides its live packets down instead of growing,
// so a standing backlog cycles through one array. Caller holds s.mu.
func (s *Station) enqueueLocked(p Packet) {
	if len(s.in) == cap(s.in) && 2*s.head >= len(s.in) {
		live := copy(s.in, s.in[s.head:])
		clear(s.in[live:])
		s.in = s.in[:live]
		s.head = 0
	}
	s.in = append(s.in, p)
}

// EarliestArrival reports the earliest observable or scheduled delivery on
// the station: zero (and true) if packets are already queued, else the
// minimum release time among held deliveries — the heap's root, so the
// answer costs O(1). The fleet scheduler reads it after the owning machine
// runs and whenever the station's delivery hook fires, to wake a machine
// that is blocked waiting for traffic.
func (s *Station) EarliestArrival() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.in) > s.head {
		return 0, true
	}
	if len(s.held) == 0 {
		return 0, false
	}
	return s.held[0].release, true
}

// Recv polls the input queue, returning the oldest packet if any. The
// delivery is recorded on the station's recorder: arrivals belong to the
// receiving machine's timeline.
//
// The packet's payload is a pool buffer that now belongs to the caller: it
// stays intact for as long as the caller keeps it, and a caller done with it
// may hand it back with Free.
func (s *Station) Recv() (Packet, bool) {
	rec := s.TraceRecorder()
	now := s.Clock().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoteLocked(now)
	if s.head == len(s.in) {
		return Packet{}, false
	}
	p := s.in[s.head]
	s.in[s.head] = Packet{}
	s.head++
	if s.head == len(s.in) {
		s.in, s.head = s.in[:0], 0
	}
	if rec != nil {
		rec.EmitFlow(now, trace.KindEtherRecv, "", int64(p.Src), int64(len(p.Payload)+HeaderWords), int64(p.Flow))
		rec.Add(cRecv, 1)
	}
	return p, true
}

// Pending reports queued packet count (held deliveries count once their
// release time has passed).
func (s *Station) Pending() int {
	now := s.Clock().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.promoteLocked(now)
	return len(s.in) - s.head
}

// PackBytes packs src into dst two bytes to a word, high byte first: the
// standardized packet representation (§1), which is also the layout of a
// disk page's value words (§3). An odd last byte fills the high half of its
// word and leaves the low half zero. dst must hold (len(src)+1)/2 words;
// PackBytes returns that count.
func PackBytes[B ~[]byte | ~string](dst []Word, src B) int {
	n := (len(src) + 1) / 2
	dst = dst[:n]
	pairs := len(src) / 2
	for i := 0; i < pairs; i++ {
		dst[i] = Word(src[2*i])<<8 | Word(src[2*i+1])
	}
	if pairs < n {
		dst[pairs] = Word(src[len(src)-1]) << 8
	}
	return n
}

// AppendBytes unpacks the first n bytes held in src — the inverse of
// PackBytes — onto dst, growing dst at most once. src must hold (n+1)/2
// words.
func AppendBytes(dst []byte, src []Word, n int) []byte {
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	for i, w := range src[:n/2] {
		out[2*i] = byte(w >> 8)
		out[2*i+1] = byte(w)
	}
	if n%2 == 1 {
		out[n-1] = byte(src[n/2] >> 8)
	}
	return dst
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
	PackBytes(out[1:], str)
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
	return string(AppendBytes(nil, w[1:], n)), nil
}
