package ether

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"altoos/internal/sim"
)

func TestSendRecv(t *testing.T) {
	n := New(nil)
	a, err := n.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Packet{Dst: 2, Type: 7, Payload: []Word{10, 20}}); err != nil {
		t.Fatal(err)
	}
	p, ok := b.Recv()
	if !ok {
		t.Fatal("no packet delivered")
	}
	if p.Src != 1 || p.Dst != 2 || p.Type != 7 || len(p.Payload) != 2 || p.Payload[1] != 20 {
		t.Fatalf("packet %+v", p)
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("phantom second packet")
	}
	if _, ok := a.Recv(); ok {
		t.Fatal("sender received its own unicast")
	}
}

func TestBroadcast(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	c, _ := n.Attach(3)
	if err := a.Send(Packet{Dst: Broadcast, Type: 1}); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 1 || c.Pending() != 1 {
		t.Fatal("broadcast not delivered to all others")
	}
	if a.Pending() != 0 {
		t.Fatal("broadcast echoed to sender")
	}
}

func TestAddressFiltering(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	c, _ := n.Attach(3)
	a.Send(Packet{Dst: 3})
	if b.Pending() != 0 {
		t.Fatal("station 2 saw a packet for 3")
	}
	if c.Pending() != 1 {
		t.Fatal("station 3 missed its packet")
	}
}

func TestWireTimeCharged(t *testing.T) {
	clock := sim.NewClock()
	n := New(clock)
	a, _ := n.Attach(1)
	n.Attach(2)
	before := clock.Now()
	payload := make([]Word, 100)
	if err := a.Send(Packet{Dst: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(100+HeaderWords) * WireTime
	if got := clock.Now() - before; got != want {
		t.Fatalf("wire time %v, want %v", got, want)
	}
}

func TestErrors(t *testing.T) {
	n := New(nil)
	if _, err := n.Attach(0); !errors.Is(err, ErrAddrInUse) {
		t.Error("attached at broadcast address")
	}
	a, _ := n.Attach(1)
	if _, err := n.Attach(1); !errors.Is(err, ErrAddrInUse) {
		t.Error("duplicate address accepted")
	}
	if err := a.Send(Packet{Dst: 2, Payload: make([]Word, MaxPayload+1)}); !errors.Is(err, ErrTooBig) {
		t.Error("oversized packet accepted")
	}
	a.Detach()
	if err := a.Send(Packet{Dst: 2}); !errors.Is(err, ErrNoStation) {
		t.Error("detached station could send")
	}
}

func TestPayloadIsCopied(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	payload := []Word{1, 2, 3}
	a.Send(Packet{Dst: 2, Payload: payload})
	payload[0] = 99
	p, _ := b.Recv()
	if p.Payload[0] != 1 {
		t.Fatal("payload aliased, not serialized")
	}
}

func TestStats(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	n.Attach(2)
	a.Send(Packet{Dst: 2, Payload: make([]Word, 10)})
	a.Send(Packet{Dst: 2})
	pkts, words := n.Stats()
	if pkts != 2 || words != int64(10+HeaderWords+HeaderWords) {
		t.Fatalf("stats %d pkts %d words", pkts, words)
	}
}

func TestStringPackingProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		s := string(raw)
		got, err := UnpackString(PackString(s))
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackRejectsDamage(t *testing.T) {
	if _, err := UnpackString(nil); err == nil {
		t.Error("accepted empty payload")
	}
	if _, err := UnpackString([]Word{500, 0}); err == nil {
		t.Error("accepted truncated string")
	}
}

// TestHeldPromotionSortsByArrival: packets whose release times pass together
// promote in (release, source address, sender sequence) order, not in the
// order the fault model happened to append them.
func TestHeldPromotionSortsByArrival(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	c, _ := n.Attach(3)
	// Delay station 1's first send by 5 ms and station 2's by 1 ms: the
	// second send is appended to held later but releases earlier.
	n.InjectFaults(FaultConfig{
		DelayTime: 5 * time.Millisecond,
		Force:     map[Judged]Fault{{Src: 1}: FaultDelay},
	})
	if err := a.Send(Packet{Dst: 3, Type: 100}); err != nil {
		t.Fatal(err)
	}
	n.InjectFaults(FaultConfig{
		DelayTime: time.Millisecond,
		Force:     map[Judged]Fault{{Src: 2}: FaultDelay},
	})
	if err := b.Send(Packet{Dst: 3, Type: 200}); err != nil {
		t.Fatal(err)
	}
	n.ClearFaults()
	n.Clock().Advance(time.Second) // both releases long past
	p1, ok1 := c.Recv()
	p2, ok2 := c.Recv()
	if !ok1 || !ok2 {
		t.Fatalf("expected two promoted packets, got %v %v", ok1, ok2)
	}
	if p1.Type != 200 || p2.Type != 100 {
		t.Fatalf("promotion order (%d, %d), want the earlier release (200) first", p1.Type, p2.Type)
	}
}

// TestFleetDeliveryWaitsForArrival: a delivery is a scheduled event — the
// receiver, on its own clock, sees nothing until its time
// reaches the packet's arrival time.
func TestFleetDeliveryWaitsForArrival(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	ca, cb := sim.NewClock(), sim.NewClock()
	a.SetClock(ca)
	b.SetClock(cb)
	if err := a.Send(Packet{Dst: 2, Payload: []Word{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	arrive := ca.Now() // sender's clock advanced by the wire time
	if arrive == 0 {
		t.Fatal("send charged no wire time to the sender's clock")
	}
	if cb.Now() != 0 {
		t.Fatal("send advanced the receiver's clock")
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("packet visible before the receiver's clock reached arrival")
	}
	if got, ok := b.EarliestArrival(); !ok || got != arrive {
		t.Fatalf("EarliestArrival() = %v, %v; want %v, true", got, ok, arrive)
	}
	cb.AdvanceTo(arrive)
	if _, ok := b.Recv(); !ok {
		t.Fatal("packet not promoted once the receiver's clock reached arrival")
	}
}

// TestFleetHorizonGatesDelivery: a machine whose clock overran the lockstep
// window cannot observe arrivals at or beyond the horizon, even though its
// own clock has passed them — the rule that keeps delivery independent of
// host interleaving.
func TestFleetHorizonGatesDelivery(t *testing.T) {
	n := New(nil)
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	ca, cb := sim.NewClock(), sim.NewClock()
	a.SetClock(ca)
	b.SetClock(cb)
	if err := a.Send(Packet{Dst: 2}); err != nil {
		t.Fatal(err)
	}
	arrive := ca.Now()
	cb.AdvanceTo(arrive + time.Millisecond) // receiver overran the window
	n.SetHorizon(arrive)                    // horizon not yet past arrival
	if _, ok := b.Recv(); ok {
		t.Fatal("packet promoted at the horizon; promotion must be strictly below it")
	}
	n.SetHorizon(arrive + 1)
	if _, ok := b.Recv(); !ok {
		t.Fatal("packet not promoted once the horizon passed arrival")
	}
}

// TestFleetPerSenderFaultStreams: with per-sender verdict streams, one
// sender's fault pattern is a function of its own send sequence alone —
// unaffected by how much traffic other senders put on the wire.
func TestFleetPerSenderFaultStreams(t *testing.T) {
	run := func(otherTraffic int) []bool {
		n := New(nil)
		a, _ := n.Attach(1)
		x, _ := n.Attach(2)
		b, _ := n.Attach(3)
		a.SetClock(sim.NewClock())
		x.SetClock(sim.NewClock())
		b.SetClock(sim.NewClock())
		n.InjectFaults(FaultConfig{Seed: 7, Drop: Rate{Num: 1, Den: 3}})
		var pattern []bool
		for i := 0; i < 32; i++ {
			for j := 0; j < otherTraffic; j++ {
				if err := x.Send(Packet{Dst: 3}); err != nil {
					t.Fatal(err)
				}
			}
			before := n.fault.stats.Dropped
			if err := a.Send(Packet{Dst: 3}); err != nil {
				t.Fatal(err)
			}
			pattern = append(pattern, n.fault.stats.Dropped > before)
		}
		_ = b
		return pattern
	}
	quiet, noisy := run(0), run(5)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("send %d: drop verdict changed (%v vs %v) because of unrelated traffic", i, quiet[i], noisy[i])
		}
	}
}
