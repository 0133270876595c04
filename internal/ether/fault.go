package ether

// The fault model. The paper's openness story (§1) standardizes only the
// *representation* of packets on the wire — nothing above it may assume the
// wire is kind. A real 3 Mb/s experimental Ethernet dropped packets on
// collisions, delivered late under load, and occasionally flipped bits; the
// software living on it (PUP, EFTP) was shaped by exactly those faults.
// FaultMedium reproduces them deterministically: every verdict comes from a
// seeded sim.Rand that belongs to the sending station, and every delay is
// measured in simulated time, never wall time, so a run with faults replays
// byte-identically.

import (
	"time"

	"altoos/internal/sim"
)

// Rate is a probability Num/Den. The zero Rate never fires and consumes no
// randomness, so unused fault classes do not perturb the PRNG sequence.
type Rate struct {
	Num, Den int
}

func (r Rate) zero() bool { return r.Num <= 0 }

// Fault names one forced fault class, for scripted injection in tests.
type Fault uint8

const (
	// FaultNone delivers the packet untouched.
	FaultNone Fault = iota
	// FaultDrop loses the delivery.
	FaultDrop
	// FaultDup delivers the packet twice.
	FaultDup
	// FaultCorrupt flips one payload bit (detectable via Packet.SumOK).
	FaultCorrupt
	// FaultDelay holds the delivery for the configured DelayTime.
	FaultDelay
)

// FaultConfig parameterizes a FaultMedium. All rates are per delivery
// attempt (one verdict per destination per send, judged in address order).
type FaultConfig struct {
	// Seed seeds the verdict PRNGs, one per sender; runs with equal seeds
	// and workloads replay identically.
	Seed uint64
	// Drop, Dup, Corrupt and Delay are the per-delivery fault rates.
	Drop, Dup, Corrupt, Delay Rate
	// DelayTime is how long a delayed packet is held past its arrival
	// (default 2 ms of simulated time). Held packets can overtake later
	// sends — the one reordering source on this medium.
	DelayTime time.Duration
	// Force overrides the dice for specific delivery attempts:
	// Force[Judged{Src: a, N: i}] is applied to the i-th delivery (0-based)
	// judged for packets station a sent. Keyed lookups only — tests use it
	// to lose exactly the packet they mean to.
	Force map[Judged]Fault
}

// Judged names one delivery attempt: the N-th (0-based) that the medium
// judged for packets sent by station Src.
type Judged struct {
	Src Addr
	N   int64
}

// DefaultDelay is the held time for delayed packets when the config gives
// none.
const DefaultDelay = 2 * time.Millisecond

// FaultMedium injects faults into a Network's delivery path. Attach with
// Network.InjectFaults; the zero value is not valid.
type FaultMedium struct {
	// Guarded by the owning Network's mu: judge is only called from Send
	// with the lock held.
	cfg FaultConfig
	// streams holds the per-sender verdict streams, so concurrent senders
	// never interleave draws from one PRNG in host order. Each sender's
	// stream is seeded from the config seed and the sender's address, and
	// is consumed only in that sender's program order — keyed lookups
	// only, never ranged.
	streams map[Addr]*faultStream
	stats   FaultStats
}

// faultStream is one deterministic verdict sequence: a seeded PRNG plus the
// count of verdicts drawn from it (the N that Force keys against).
type faultStream struct {
	rnd    *sim.Rand
	judged int64
}

// streamFor returns the verdict stream for one sender, creating it on first
// use. Derivation folds the address into the seed with the 64-bit golden
// ratio so adjacent addresses get well-separated sequences.
func (f *FaultMedium) streamFor(src Addr) *faultStream {
	if st, ok := f.streams[src]; ok {
		return st
	}
	st := &faultStream{rnd: sim.NewRand(f.cfg.Seed ^ (uint64(src)+1)*0x9E3779B97F4A7C15)}
	f.streams[src] = st
	return st
}

// FaultStats counts what the medium actually did.
type FaultStats struct {
	Judged    int64 // delivery attempts seen
	Dropped   int64
	Dupped    int64
	Corrupted int64
	Delayed   int64
}

// InjectFaults attaches a fault model to the medium (replacing any previous
// one) and returns it. A nil config detaches: see ClearFaults.
func (n *Network) InjectFaults(cfg FaultConfig) *FaultMedium {
	if cfg.DelayTime <= 0 {
		cfg.DelayTime = DefaultDelay
	}
	f := &FaultMedium{cfg: cfg, streams: map[Addr]*faultStream{}}
	n.mu.Lock()
	n.fault = f
	n.mu.Unlock()
	return f
}

// ClearFaults restores the perfect medium.
func (n *Network) ClearFaults() {
	n.mu.Lock()
	n.fault = nil
	n.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (f *FaultMedium) Stats() FaultStats {
	// Taking the network lock is the owner's business; stats are read
	// between polls in a single-activity world, and torn reads of int64s
	// on a live run are acceptable for diagnostics. Tests read quiesced.
	return f.stats
}

// verdict is one delivery's fate.
type verdict struct {
	idx     int64 // the sender's judged-delivery index (0-based), for trace events
	drop    bool
	dup     bool
	corrupt bool
	delay   time.Duration
	// bit to flip when corrupt: word index (mod payload length) and bit.
	word, bit int
}

// judge rolls the dice for one delivery attempt. Called under the owning
// Network's mu, in destination-address order, with src's own stream, which
// src consumes in its own program order — the facts that make the PRNG
// sequence, and so the whole fault pattern, reproducible even when senders
// execute concurrently on the host.
func (f *FaultMedium) judge(src Addr, payloadWords int) verdict {
	st := f.streamFor(src)
	idx := st.judged
	st.judged++
	f.stats.Judged++
	if forced, ok := f.cfg.Force[Judged{Src: src, N: idx}]; ok {
		v := f.forcedVerdict(st, forced, payloadWords)
		v.idx = idx
		return v
	}
	v := verdict{idx: idx}
	if st.roll(f.cfg.Drop) {
		v.drop = true
		f.stats.Dropped++
		return v
	}
	if st.roll(f.cfg.Dup) {
		v.dup = true
		f.stats.Dupped++
	}
	if st.roll(f.cfg.Corrupt) {
		v.corrupt = true
		st.aimBit(&v, payloadWords)
		f.stats.Corrupted++
	}
	if st.roll(f.cfg.Delay) {
		v.delay = f.cfg.DelayTime
		f.stats.Delayed++
	}
	return v
}

// forcedVerdict builds the verdict for a scripted fault.
func (f *FaultMedium) forcedVerdict(st *faultStream, forced Fault, payloadWords int) verdict {
	var v verdict
	switch forced {
	case FaultDrop:
		v.drop = true
		f.stats.Dropped++
	case FaultDup:
		v.dup = true
		f.stats.Dupped++
	case FaultCorrupt:
		v.corrupt = true
		st.aimBit(&v, payloadWords)
		f.stats.Corrupted++
	case FaultDelay:
		v.delay = f.cfg.DelayTime
		f.stats.Delayed++
	}
	return v
}

// roll draws one boolean at the given rate; zero rates draw nothing.
func (st *faultStream) roll(r Rate) bool {
	if r.zero() {
		return false
	}
	return st.rnd.Bool(r.Num, r.Den)
}

// aimBit picks which bit corruption flips.
func (st *faultStream) aimBit(v *verdict, payloadWords int) {
	v.bit = st.rnd.Intn(16)
	if payloadWords > 0 {
		v.word = st.rnd.Intn(payloadWords)
	}
}

// mangle applies the verdict's bit flip to the delivered copy. The copy's
// Check word was computed before the flip, so the damage is detectable —
// exactly the guarantee a checksum buys on a real wire.
func (v verdict) mangle(p *Packet) {
	if len(p.Payload) > 0 {
		p.Payload[v.word] ^= 1 << v.bit
	} else {
		p.Type ^= 1 << v.bit
	}
}
