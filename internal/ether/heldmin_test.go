package ether

import (
	"testing"
	"time"

	"altoos/internal/sim"
)

// linearEarliest is EarliestArrival computed the slow way: zero if packets
// are queued, else a scan of every held delivery.
func linearEarliest(s *Station) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.in) > 0 {
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

// TestEarliestArrivalMatchesScan: the cached minimum behind EarliestArrival
// always equals a linear scan of the held deliveries, across seeded
// sequences of unicast and broadcast sends with dup and delay, Recv and
// Pending at varying clocks and horizons, and detaches — in fleet mode and
// on the shared clock.
func TestEarliestArrivalMatchesScan(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		checks := 0
		for seed := uint64(1); seed <= 40; seed++ {
			rnd := sim.NewRand(seed)
			n := New(nil)
			if fleet {
				n.SetFleetMode(true)
			}
			n.InjectFaults(FaultConfig{
				Seed:      seed,
				Drop:      Rate{Num: 1, Den: 10},
				Dup:       Rate{Num: 1, Den: 5},
				Delay:     Rate{Num: 1, Den: 3},
				DelayTime: time.Duration(1+rnd.Intn(500)) * time.Microsecond,
			})
			var sts []*Station
			for a := Addr(1); a <= Addr(2+rnd.Intn(6)); a++ {
				st, err := n.Attach(a)
				if err != nil {
					t.Fatal(err)
				}
				if fleet {
					st.SetClock(sim.NewClock())
				}
				sts = append(sts, st)
			}
			for op := 0; op < 400; op++ {
				st := sts[rnd.Intn(len(sts))]
				switch rnd.Intn(9) {
				case 0, 1, 2:
					dst := Addr(1 + rnd.Intn(len(sts)))
					if rnd.Bool(1, 3) {
						dst = Broadcast
					}
					// A detached sender fails with ErrNoStation; that is part
					// of the sequence, not a test failure.
					_ = st.Send(Packet{Dst: dst, Type: Word(op), Payload: make([]Word, rnd.Intn(20))})
				case 3:
					st.Clock().Advance(time.Duration(rnd.Intn(300)) * time.Microsecond)
				case 4:
					st.Recv()
				case 5:
					st.Pending()
				case 6:
					n.SetHorizon(st.Clock().Now() + time.Duration(rnd.Intn(600)-100)*time.Microsecond)
				case 7:
					for st.Pending() > 0 {
						st.Recv()
					}
				case 8:
					if rnd.Bool(1, 8) {
						st.Detach()
					}
				}
				for _, s := range sts {
					got, gotOK := s.EarliestArrival()
					want, wantOK := linearEarliest(s)
					if got != want || gotOK != wantOK {
						t.Fatalf("fleet=%v seed %d op %d station %d: EarliestArrival() = %v, %v; scan says %v, %v",
							fleet, seed, op, s.Addr(), got, gotOK, want, wantOK)
					}
					if wantOK && len(s.in) == 0 {
						checks++
					}
				}
			}
		}
		if checks == 0 {
			t.Fatalf("fleet=%v: no check ever saw a held delivery", fleet)
		}
	}
}
