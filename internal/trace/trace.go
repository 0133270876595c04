// Package trace is the flight recorder for the simulated machine: a
// zero-dependency, deterministic event-tracing and metrics layer timed
// exclusively off sim.Clock. The disk, scavenger, zones, streams, swapper
// and network emit typed events into a fixed-capacity ring buffer; the
// recorder keeps a compact metrics snapshot, and internal/scope merges each
// machine's recording into one Chrome trace_event file (for
// chrome://tracing).
//
// The paper explains the system almost entirely through timing arguments —
// label checks cost "one more revolution", scavenging "takes about a
// minute", OutLoad "about a second" — and the recorder makes those costs
// visible per layer instead of only as a final benchmark number.
//
// Determinism contract: every event is stamped with *simulated* time (the
// virtual clock the hardware models advance), never the host's wall clock,
// and the exporters iterate in recorded or sorted order only. Two runs of
// the same workload therefore produce byte-identical traces; a trace diff
// is a behaviour diff. internal/experiments' TestDeterminism and TestGolden
// assert this property over whole experiments.
//
// Single-writer contract: a recorder belongs to one simulated machine and
// is written only by the goroutine running that machine; it is read after
// that machine's engine barrier. It takes no lock. Counters and histograms
// are interned — a package resolves each name once, at init, with
// NewCounter or NewHist — so a bump indexes a slice instead of hashing a
// string.
//
// A nil *Recorder is a valid no-op recorder: every method checks the
// receiver, so instrumented hot paths pay one branch when tracing is off.
package trace

import (
	"fmt"
	"math/bits"
	"time"

	"altoos/internal/sim"
)

// Kind is the type of one recorded event. The taxonomy covers the whole
// storage stack, lowest layer first.
type Kind uint8

const (
	// KindSeek is a disk arm movement (span; args: from and to cylinder).
	KindSeek Kind = iota
	// KindRotate is a rotational-latency wait for a sector slot (span).
	KindRotate
	// KindDiskOp is one whole sector operation, seek and rotation included
	// (span; args: virtual disk address and outcome code).
	KindDiskOp
	// KindCheckFail is a label-check mismatch — the expected outcome when a
	// hint proves stale (instant; args: address and failing word index).
	KindCheckFail
	// KindBadSector is an operation hitting an unrecoverable sector.
	KindBadSector
	// KindCrashWrite is a write lost to the simulated power failure (args:
	// disk address, lifetime write-action index at which the crash fired).
	KindCrashWrite
	// KindCRCMismatch reports that a value read found the sector's recorded
	// checksum stale: damage happened outside the disciplined write path.
	KindCRCMismatch
	// KindScavPhase is one phase of a scavenging or compaction pass (span).
	KindScavPhase
	// KindZoneAlloc is a free-storage allocation (args: address, words).
	KindZoneAlloc
	// KindZoneFree is a free-storage release (args: address, words).
	KindZoneFree
	// KindStreamOpen is a disk-stream open (name: leader name; args: FID).
	KindStreamOpen
	// KindStreamClose is a disk-stream close.
	KindStreamClose
	// KindSwapOut is a machine state written to a file — OutLoad and its
	// relatives (span; args: FID).
	KindSwapOut
	// KindSwapIn is a machine state restored from a file — InLoad, Boot,
	// the debugger's Resume (span; args: FID).
	KindSwapIn
	// KindEtherSend is a packet serialized onto the wire (span; args:
	// destination, words).
	KindEtherSend
	// KindEtherRecv is a packet taken off a station's input queue.
	KindEtherRecv
	// KindDiskChain is one chained transfer: a batch of sector operations
	// scheduled as a unit (span; name: chain mode; args: length, failures).
	KindDiskChain
	// KindFSSession is one file-server session, accept to close (span;
	// args: the peer's station address, data bytes moved).
	KindFSSession
	// KindCrashExplore is one explored crash point: the workload re-run to
	// its injected power failure, then Scavenger repair and fsck verdict
	// (span; name: workload; args: crash point, invariant violations found).
	KindCrashExplore
	// KindEtherFault is one fault verdict the medium handed a delivery:
	// drop, dup, corrupt or delay (instant, on the sender's recorder; name:
	// the verdict; args: the destination address and the sender's
	// judged-delivery index, the N of ether.Judged). The event carries
	// the packet's flow ID, so injected loss shows up as extra arrows on
	// the same causal chain instead of vanishing silently.
	KindEtherFault
	// KindFSRequest is one file-server request served: a fetch or store,
	// request message to reply queued (span; name: "fetch" or "store";
	// args: the peer's station address, data bytes moved). Carries the flow
	// ID the client allocated, linking the server's work to the request.
	KindFSRequest
	// KindClusterAudit is one peer-audit round a replica ran against its
	// shard group: digest polls out, verdicts in (span; name: the replica;
	// args: peers polled, divergent files found). Carries the round's flow
	// ID, shared with every digest request and heal it caused.
	KindClusterAudit
	// KindClusterHeal is one file healed from a peer: the replica detected
	// its copy diverged — bit rot or a missed overwrite — and refetched the
	// authoritative copy (span; name: the file; args: the authority replica
	// index, bytes refetched). Rides the audit round's flow.
	KindClusterHeal

	numKinds
)

// kindInfo fixes each kind's display name, category lane and argument
// names. The table is what keeps the exporters deterministic: nothing about
// an event's presentation is computed from runtime state.
var kindInfo = [numKinds]struct {
	name, cat, a0, a1 string
}{
	KindSeek:         {"seek", "disk", "from_cyl", "to_cyl"},
	KindRotate:       {"rotate", "disk", "slot", "vda"},
	KindDiskOp:       {"op", "disk", "vda", "outcome"},
	KindCheckFail:    {"check-fail", "disk", "vda", "word"},
	KindBadSector:    {"bad-sector", "disk", "vda", "outcome"},
	KindCrashWrite:   {"crash-write", "disk", "vda", "write_idx"},
	KindCRCMismatch:  {"crc-mismatch", "disk", "vda", "outcome"},
	KindScavPhase:    {"phase", "scavenge", "a0", "a1"},
	KindZoneAlloc:    {"alloc", "zone", "addr", "words"},
	KindZoneFree:     {"free", "zone", "addr", "words"},
	KindStreamOpen:   {"open", "stream", "fid", "mode"},
	KindStreamClose:  {"close", "stream", "fid", "mode"},
	KindSwapOut:      {"save-state", "swap", "fid", "pages"},
	KindSwapIn:       {"load-state", "swap", "fid", "pages"},
	KindEtherSend:    {"send", "ether", "dst", "words"},
	KindEtherRecv:    {"recv", "ether", "src", "words"},
	KindDiskChain:    {"chain", "disk", "ops", "failures"},
	KindFSSession:    {"session", "fileserver", "peer", "bytes"},
	KindCrashExplore: {"explore", "crashpoint", "point", "violations"},
	KindEtherFault:   {"fault", "ether", "dst", "judged"},
	KindFSRequest:    {"request", "fileserver", "peer", "bytes"},
	KindClusterAudit: {"audit", "cluster", "peers", "divergent"},
	KindClusterHeal:  {"heal", "cluster", "authority", "bytes"},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Category returns the subsystem lane the kind belongs to.
func (k Kind) Category() string {
	if int(k) < len(kindInfo) {
		return kindInfo[k].cat
	}
	return "?"
}

// ArgNames returns the display names of the event's two numeric arguments.
func (k Kind) ArgNames() (a0, a1 string) {
	if int(k) < len(kindInfo) {
		return kindInfo[k].a0, kindInfo[k].a1
	}
	return "a0", "a1"
}

// Event is one recorded occurrence. T is simulated time; Dur is zero for
// instants and positive for spans. Name carries kind-specific detail (the
// operation shape, a phase or file name); A0/A1 carry numeric detail whose
// meaning the kind's ArgNames declare. Flow, when nonzero, is the causal
// flow ID the event belongs to: events sharing a flow — a client request,
// its wire deliveries (retransmits included), the server work it caused —
// form one chain, rendered as arrows in the merged fleet trace.
type Event struct {
	T    time.Duration
	Dur  time.Duration
	Kind Kind
	Name string
	A0   int64
	A1   int64
	Flow int64
}

// DefaultEvents is the ring capacity used when New is given none.
const DefaultEvents = 1 << 16

// Recorder is the flight recorder: a bounded ring of events plus interned
// counters and histograms.
//
// A recorder has a single writer: it belongs to one simulated machine, and
// only the goroutine running that machine emits into it, allocates flows
// from it or resets it. Reads (Snapshot, Events, Len, Counter) happen after
// that machine's engine barrier — or, on one clock, from the same goroutine
// — never concurrently with an emission. Nothing on the emit path takes a
// lock or hashes a name: counters and histograms are indexed by the handles
// NewCounter and NewHist hand out. The race detector and fleet.Engine.Add
// (which rejects one recorder carried by two machines' stations) hold the
// contract; a recorder never calls out of the package, so any subsystem may
// emit while holding its own lock.
type Recorder struct {
	ring     []Event
	capacity int // the most events ring holds; it grows by doubling to this
	next     int // once the ring is full, the slot the next event overwrites
	emitted  int64
	dropped  int64
	counters []counterCell // indexed by CounterID
	hists    []*histogram  // indexed by HistID; nil until first observed

	// Flow allocation state: the domain (one per machine in a fleet, set
	// by scope.Fleet) and the per-recorder allocation sequence. Flows are
	// handed out in emission order — never from wall clock or math/rand —
	// so two runs allocate identical IDs.
	flowDomain uint16
	flowSeq    uint16
}

// counterCell is one counter's value; touched records that it was bumped at
// all, so a counter bumped only by zero still appears in the snapshot.
type counterCell struct {
	v       int64
	touched bool
}

// firstRing is the ring's starting size; it doubles as events arrive, so a
// recorder that sees few events never holds room for many.
const firstRing = 256

// New creates a recorder holding up to capacity events (DefaultEvents if
// capacity is not positive). Counters and histograms are sized to the names
// interned so far; only the event ring evicts, oldest first.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	counters, hists := internedNames()
	return &Recorder{
		ring:     make([]Event, 0, min(capacity, firstRing)),
		capacity: capacity,
		counters: make([]counterCell, len(counters)),
		hists:    make([]*histogram, len(hists)),
	}
}

// record appends one event, evicting the oldest when full.
func (r *Recorder) record(ev Event) {
	r.emitted++
	switch {
	case len(r.ring) < cap(r.ring):
		r.ring = append(r.ring, ev)
	case len(r.ring) < r.capacity:
		grown := make([]Event, len(r.ring), min(2*len(r.ring), r.capacity))
		copy(grown, r.ring)
		r.ring = append(grown, ev)
	default:
		r.ring[r.next] = ev
		r.next++
		if r.next == r.capacity {
			r.next = 0
		}
		r.dropped++
	}
}

// Emit records an instant event at the given simulated time.
func (r *Recorder) Emit(now time.Duration, k Kind, name string, a0, a1 int64) {
	if r == nil {
		return
	}
	r.record(Event{T: now, Kind: k, Name: name, A0: a0, A1: a1})
}

// EmitSpan records a completed interval [start, start+dur).
func (r *Recorder) EmitSpan(start, dur time.Duration, k Kind, name string, a0, a1 int64) {
	if r == nil {
		return
	}
	r.record(Event{T: start, Dur: dur, Kind: k, Name: name, A0: a0, A1: a1})
}

// EmitFlow records an instant event stamped with a causal flow ID.
func (r *Recorder) EmitFlow(now time.Duration, k Kind, name string, a0, a1, flow int64) {
	if r == nil {
		return
	}
	r.record(Event{T: now, Kind: k, Name: name, A0: a0, A1: a1, Flow: flow})
}

// EmitSpanFlow records a completed interval stamped with a causal flow ID.
func (r *Recorder) EmitSpanFlow(start, dur time.Duration, k Kind, name string, a0, a1, flow int64) {
	if r == nil {
		return
	}
	r.record(Event{T: start, Dur: dur, Kind: k, Name: name, A0: a0, A1: a1, Flow: flow})
}

// FlowBits is the width of a wire flow ID: flows travel in one 16-bit
// transport header word, so the whole ID — domain and sequence — must fit a
// Word. The low FlowSeqBits carry the per-recorder sequence; the bits above
// them carry the machine's flow domain.
const (
	FlowBits      = 16
	FlowSeqBits   = 10
	flowSeqMask   = (1 << FlowSeqBits) - 1
	maxFlowDomain = (1 << (FlowBits - FlowSeqBits)) - 1
)

// SetFlowDomain assigns the recorder's flow domain — the high bits of every
// flow ID it allocates. A fleet gives each machine's recorder a distinct
// domain (scope.Fleet does this in creation order) so flows allocated on
// different machines never collide when merged. Domains above the 6-bit
// capacity wrap; the single-machine default is domain 0.
func (r *Recorder) SetFlowDomain(d int) {
	if r == nil {
		return
	}
	r.flowDomain = uint16(d) & maxFlowDomain
}

// NextFlow allocates the next causal flow ID: the recorder's flow domain in
// the high bits, its allocation sequence in the low ten. The sequence is
// advanced by the recorder's one writer, interleaved deterministically with
// the emission stream — never wall clock, never math/rand — and skips zero
// (zero means "no flow"). It wraps after 1023 live allocations per domain,
// which bounds wire flow IDs to one 16-bit header word; flows are short
// (one request each), so a wrapped ID's earlier life has long since closed.
// A nil recorder allocates 0: with tracing off, flow stamping no-ops.
func (r *Recorder) NextFlow() int64 {
	if r == nil {
		return 0
	}
	r.flowSeq = (r.flowSeq + 1) & flowSeqMask
	if r.flowSeq == 0 {
		r.flowSeq = 1
	}
	return int64(r.flowDomain)<<FlowSeqBits | int64(r.flowSeq)
}

// Span is an open interval begun on a clock; End closes and records it.
// The zero Span (and any Span begun on a nil Recorder) is a no-op.
type Span struct {
	r      *Recorder
	c      *sim.Clock
	k      Kind
	name   string
	a0, a1 int64
	start  time.Duration
}

// Begin opens a span at c's current simulated time. The span is recorded
// only when End (or EndWith) is called, as one complete event.
func (r *Recorder) Begin(c *sim.Clock, k Kind, name string, a0, a1 int64) Span {
	if r == nil || c == nil {
		return Span{}
	}
	return Span{r: r, c: c, k: k, name: name, a0: a0, a1: a1, start: c.Now()}
}

// End closes the span at its clock's current time and records it.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.EmitSpan(s.start, s.c.Now()-s.start, s.k, s.name, s.a0, s.a1)
}

// EndWith closes the span, overriding its numeric arguments — for results
// that are only known when the work completes.
func (s Span) EndWith(a0, a1 int64) {
	if s.r == nil {
		return
	}
	s.r.EmitSpan(s.start, s.c.Now()-s.start, s.k, s.name, a0, a1)
}

// Add bumps the counter c.
func (r *Recorder) Add(c CounterID, delta int64) {
	if r == nil {
		return
	}
	if int(c) >= len(r.counters) {
		r.growCounters(c)
	}
	cell := &r.counters[c]
	cell.v += delta
	cell.touched = true
}

// growCounters makes room for a counter interned after New.
func (r *Recorder) growCounters(c CounterID) {
	r.counters = append(r.counters, make([]counterCell, int(c)+1-len(r.counters))...)
}

// Counter reads a counter by name (zero if never bumped).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	c, ok := counterID(name)
	if !ok || int(c) >= len(r.counters) {
		return 0
	}
	return r.counters[c].v
}

// Observe adds one sample to the histogram h.
func (r *Recorder) Observe(h HistID, v float64) {
	if r == nil {
		return
	}
	if int(h) >= len(r.hists) {
		r.growHists(h)
	}
	if r.hists[h] == nil {
		r.hists[h] = &histogram{}
	}
	r.hists[h].observe(v)
}

// growHists makes room for a histogram interned after New.
func (r *Recorder) growHists(h HistID) {
	r.hists = append(r.hists, make([]*histogram, int(h)+1-len(r.hists))...)
}

// Len reports the number of events currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Events returns the recorded events, oldest first. The i-th event is the
// machine's event number Snapshot().Dropped + i in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Reset clears the ring, counters and histograms — used between benchmark
// iterations, like sim.Clock.Reset.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.ring = r.ring[:0]
	r.next = 0
	r.emitted = 0
	r.dropped = 0
	r.flowSeq = 0
	clear(r.counters)
	clear(r.hists)
}

// Source is implemented by objects that carry a flight recorder. The disk
// drive is the canonical source: every layer that holds a Device — the
// file system, the Scavenger, the swapper — reaches the system's recorder
// through it without any new plumbing in their interfaces.
type Source interface {
	TraceRecorder() *Recorder
}

// Of returns the recorder carried by v, or nil (the no-op recorder) when v
// is nil or carries none.
func Of(v any) *Recorder {
	if s, ok := v.(Source); ok {
		return s.TraceRecorder()
	}
	return nil
}

// histogram is a deterministic log2-bucketed histogram: sample v lands in
// bucket bits.Len64(v) (bucket 0 holds v < 1). Power-of-two buckets keep
// the export small and the math exact for the quantities observed here —
// revolutions, queue depths, words.
const histBuckets = 33

type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	idx := 0
	if v >= 1 {
		idx = bits.Len64(uint64(v))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx]++
}
