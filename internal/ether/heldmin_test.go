package ether

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"altoos/internal/sim"
)

// linearEarliest is EarliestArrival computed the slow way: zero if packets
// are queued, else a scan of every held delivery.
func linearEarliest(s *Station) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.in) > s.head {
		return 0, true
	}
	var best time.Duration
	ok := false
	for _, h := range s.held {
		if !ok || h.release < best {
			best, ok = h.release, true
		}
	}
	return best, ok
}

// scanQueue is a station's receive side as it was before the held heap: an
// unordered slice of held deliveries with a cached minimum, promoted by
// scanning for the due ones and sorting them. It is the reference the heap's
// delivery order is checked against.
type scanQueue struct {
	in      []Packet
	held    []heldPacket
	heldMin time.Duration
	due     []heldPacket
}

// take moves everything a twin station's Send path queued or scheduled into
// the reference, leaving the twin empty. Called after every operation, so
// direct and held deliveries keep their relative order.
func (o *scanQueue) take(s *Station) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.held {
		if len(o.held) == 0 || h.release < o.heldMin {
			o.heldMin = h.release
		}
		o.held = append(o.held, h)
	}
	s.held = s.held[:0]
	o.in = append(o.in, s.in[s.head:]...)
	s.in, s.head = s.in[:0], 0
}

func (o *scanQueue) promote(s *Station) {
	if len(o.held) == 0 {
		return
	}
	limit := s.Clock().Now()
	s.net.fleetLimit(&limit)
	if o.heldMin > limit {
		return
	}
	due := o.due[:0]
	kept := o.held[:0]
	for _, h := range o.held {
		if h.release <= limit {
			due = append(due, h)
		} else {
			if len(kept) == 0 || h.release < o.heldMin {
				o.heldMin = h.release
			}
			kept = append(kept, h)
		}
	}
	o.held = kept
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
		o.in = append(o.in, h.pkt)
	}
	clear(due)
	o.due = due[:0]
}

func (o *scanQueue) recv(s *Station) (Packet, bool) {
	o.promote(s)
	if len(o.in) == 0 {
		return Packet{}, false
	}
	p := o.in[0]
	o.in = o.in[1:]
	return p, true
}

func (o *scanQueue) pending(s *Station) int {
	o.promote(s)
	return len(o.in)
}

func (o *scanQueue) earliest() (time.Duration, bool) {
	if len(o.in) > 0 {
		return 0, true
	}
	if len(o.held) == 0 {
		return 0, false
	}
	return o.heldMin, true
}

func samePacket(a, b Packet) bool {
	return a.Dst == b.Dst && a.Src == b.Src && a.Type == b.Type && a.Check == b.Check &&
		a.Flow == b.Flow && slices.Equal(a.Payload, b.Payload)
}

// TestEarliestArrivalMatchesScan drives twin networks through the same
// seeded schedule: unicast and broadcast sends with drop, dup, corrupt and
// delay, clock advances (including lining every fleet clock up, so sends
// from different stations and delayed and fresh sends from one station tie
// on release time), fleet horizons, Recv and Pending at varying clocks, and
// detaches — in fleet mode and on the shared clock. One twin's stations run
// on the held heap and reusing inbox; the other's deliveries are siphoned
// into the scan-and-sort reference after every operation. After every
// operation both must agree on what Recv returns, on Pending, and on
// EarliestArrival, which must also equal a linear scan of the heap.
func TestEarliestArrivalMatchesScan(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		heldChecks, srcTies, seqTies := 0, 0, 0
		for seed := uint64(1); seed <= 40; seed++ {
			rnd := sim.NewRand(seed)
			delay := time.Duration(1+rnd.Intn(500)) * time.Microsecond
			if seed%2 == 0 {
				// A whole number of wire words: a delayed packet then
				// ties with a later fresh send from the same station.
				delay = time.Duration(HeaderWords+rnd.Intn(8)) * WireTime
			}
			cfg := FaultConfig{
				Seed:      seed,
				Drop:      Rate{Num: 1, Den: 10},
				Dup:       Rate{Num: 1, Den: 5},
				Corrupt:   Rate{Num: 1, Den: 7},
				Delay:     Rate{Num: 1, Den: 3},
				DelayTime: delay,
			}
			var nets [2]*Network
			var twins [2][]*Station
			size := 2 + rnd.Intn(6)
			for k := range nets {
				n := New(nil)
				if fleet {
					n.SetFleetMode()
				}
				n.InjectFaults(cfg)
				for a := Addr(1); a <= Addr(size); a++ {
					st, err := n.Attach(a)
					if err != nil {
						t.Fatal(err)
					}
					if fleet {
						st.SetClock(sim.NewClock())
					}
					twins[k] = append(twins[k], st)
				}
				nets[k] = n
			}
			sts, refSts := twins[0], twins[1]
			refs := make([]scanQueue, size)
			for op := 0; op < 400; op++ {
				i := rnd.Intn(size)
				st, refSt, ref := sts[i], refSts[i], &refs[i]
				where := func() string {
					return fmt.Sprintf("fleet=%v seed %d op %d station %d", fleet, seed, op, st.Addr())
				}
				switch rnd.Intn(10) {
				case 0, 1, 2:
					dst := Addr(1 + rnd.Intn(size))
					if rnd.Bool(1, 3) {
						dst = Broadcast
					}
					words := rnd.Intn(20)
					if rnd.Bool(1, 2) {
						words = rnd.Intn(3)
					}
					payload := make([]Word, words)
					for w := range payload {
						payload[w] = rnd.Word()
					}
					// A detached sender fails with ErrNoStation; that is part
					// of the sequence, not a test failure.
					p := Packet{Dst: dst, Type: Word(op), Flow: Word(op), Payload: payload}
					err, refErr := st.Send(p), refSt.Send(p)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: Send = %v, twin %v", where(), err, refErr)
					}
				case 3:
					d := time.Duration(rnd.Intn(300)) * time.Microsecond
					st.Clock().Advance(d)
					refSt.Clock().Advance(d)
				case 4:
					got, gotOK := st.Recv()
					want, wantOK := ref.recv(refSt)
					if gotOK != wantOK || !samePacket(got, want) {
						t.Fatalf("%s: Recv() = %+v, %v; reference %+v, %v", where(), got, gotOK, want, wantOK)
					}
				case 5:
					if got, want := st.Pending(), ref.pending(refSt); got != want {
						t.Fatalf("%s: Pending() = %d; reference %d", where(), got, want)
					}
				case 6:
					h := st.Clock().Now() + time.Duration(rnd.Intn(600)-100)*time.Microsecond
					nets[0].SetHorizon(h)
					nets[1].SetHorizon(h)
				case 7:
					for st.Pending() > 0 {
						got, _ := st.Recv()
						want, wantOK := ref.recv(refSt)
						if !wantOK || !samePacket(got, want) {
							t.Fatalf("%s: draining Recv() = %+v; reference %+v, %v", where(), got, want, wantOK)
						}
					}
					if n := ref.pending(refSt); n != 0 {
						t.Fatalf("%s: drained, reference still has %d pending", where(), n)
					}
				case 8:
					if fleet {
						var latest time.Duration
						for _, s := range sts {
							latest = max(latest, s.Clock().Now())
						}
						for j := range sts {
							sts[j].Clock().AdvanceTo(latest)
							refSts[j].Clock().AdvanceTo(latest)
						}
					}
				case 9:
					if rnd.Bool(1, 8) {
						st.Detach()
						refSt.Detach()
					}
				}
				for j, s := range sts {
					refs[j].take(refSts[j])
					got, gotOK := s.EarliestArrival()
					want, wantOK := linearEarliest(s)
					ref, refOK := refs[j].earliest()
					if got != want || gotOK != wantOK || got != ref || gotOK != refOK {
						t.Fatalf("%s: station %d EarliestArrival() = %v, %v; scan says %v, %v; reference %v, %v",
							where(), s.Addr(), got, gotOK, want, wantOK, ref, refOK)
					}
					if wantOK && len(s.in) == s.head {
						heldChecks++
					}
					src, seq := countTies(s.held)
					srcTies += src
					seqTies += seq
				}
			}
		}
		if heldChecks == 0 {
			t.Fatalf("fleet=%v: no check ever saw a held delivery", fleet)
		}
		if fleet && (srcTies == 0 || seqTies == 0) {
			t.Fatalf("fleet mode: held deliveries tied on release %d times across sources, %d times within one source; want both",
				srcTies, seqTies)
		}
	}
}

// countTies counts pairs of held deliveries that share a release time: from
// different sources (the source tie-break decides them) and from distinct
// sends of one source (the sequence tie-break decides them).
func countTies(held []heldPacket) (src, seq int) {
	for i := range held {
		for j := i + 1; j < len(held); j++ {
			a, b := &held[i], &held[j]
			switch {
			case a.release != b.release:
			case a.src != b.src:
				src++
			case a.seq != b.seq:
				seq++
			}
		}
	}
	return src, seq
}
