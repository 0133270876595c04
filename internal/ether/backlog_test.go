package ether

import (
	"testing"

	"altoos/internal/sim"
)

// backlogPair attaches a sender and a receiver, gives the receiver a
// standing backlog of depth packets, and returns one Send→Recv cycle that
// keeps the backlog at that depth and returns the packet received. In fleet
// mode every delivery passes through the receiver's held heap: the
// receiver's clock is moved up to the sender's before each Recv, so the
// packet just sent is due.
func backlogPair(tb testing.TB, fleet bool, depth int) func() Packet {
	tb.Helper()
	n := New(nil)
	if fleet {
		n.SetFleetMode()
	}
	tx, err := n.Attach(1)
	if err != nil {
		tb.Fatal(err)
	}
	rx, err := n.Attach(2)
	if err != nil {
		tb.Fatal(err)
	}
	if fleet {
		tx.SetClock(sim.NewClock())
		rx.SetClock(sim.NewClock())
	}
	p := Packet{Dst: 2, Type: 1, Payload: make([]Word, 32)}
	for i := 0; i < depth; i++ {
		if err := tx.Send(p); err != nil {
			tb.Fatal(err)
		}
	}
	return func() Packet {
		if err := tx.Send(p); err != nil {
			tb.Fatal(err)
		}
		rx.Clock().AdvanceTo(tx.Clock().Now())
		got, ok := rx.Recv()
		if !ok {
			tb.Fatal("backlogged station received nothing")
		}
		return got
	}
}

// TestBacklogAllocatesOnlyTheWireCopy pins the per-packet cost of a busy
// station: with 64 packets standing in its queue, a steady Send→Recv cycle
// allocates exactly one object, Send's copy of the payload onto the wire.
// Neither the held heap nor the input queue grows once warm.
func TestBacklogAllocatesOnlyTheWireCopy(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		cycle := backlogPair(t, fleet, 64)
		for i := 0; i < 256; i++ {
			cycle() // warm: the arrays reach their steady capacity
		}
		// Count over batches of cycles: AllocsPerRun truncates its mean,
		// which would hide a regrowth every few dozen packets.
		const batch = 256
		a := testing.AllocsPerRun(20, func() {
			for i := 0; i < batch; i++ {
				cycle()
			}
		})
		if a != batch {
			t.Errorf("fleet=%v: %d Send→Recv cycles over a 64-packet backlog allocate %v times, want %d", fleet, batch, a, batch)
		}
	}
}

// BenchmarkStationBacklog is one Send→Recv cycle on a station holding a
// standing backlog of 64 packets, on the shared clock and in fleet mode.
func BenchmarkStationBacklog(b *testing.B) {
	for _, mode := range []struct {
		name  string
		fleet bool
	}{{"shared", false}, {"fleet", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cycle := backlogPair(b, mode.fleet, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
