package ether

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// raceEnabled is set in race builds (raceflag_test.go).
var raceEnabled bool

// emptyPoolAfter empties the payload pool when t ends, so the pins that
// count the wire copy of packets nobody frees, run after t, still find the
// pool empty. The first collection moves pooled buffers to the pool's victim
// cache, the second drops them.
func emptyPoolAfter(t *testing.T) {
	t.Cleanup(func() {
		runtime.GC()
		runtime.GC()
	})
}

// allocsWithoutGC is testing.AllocsPerRun with the collector held off, since
// a collection empties the payload pool; the setting is restored on return.
func allocsWithoutGC(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestBacklogFreeCycleAllocatesNothing is the hand-back path of
// TestBacklogAllocatesOnlyTheWireCopy: when the receiver frees each packet,
// the next Send's wire copy reuses its buffer and a steady Send→Recv→Free
// cycle over a 64-packet backlog allocates nothing, on the network's clock
// and on clocks of the stations' own.
func TestBacklogFreeCycleAllocatesNothing(t *testing.T) {
	emptyPoolAfter(t)
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	for _, ownClocks := range []bool{false, true} {
		cycle := backlogPair(t, ownClocks, 64)
		const batch = 256
		a := allocsWithoutGC(20, func() {
			for i := 0; i < batch; i++ {
				Free(cycle().Payload)
			}
		})
		if a != 0 {
			t.Errorf("ownClocks=%v: %d Send→Recv→Free cycles over a 64-packet backlog allocate %v times, want 0", ownClocks, batch, a)
		}
	}
}

// BenchmarkStationBacklogFree is BenchmarkStationBacklog with the receiver
// handing each packet back to the pool.
func BenchmarkStationBacklogFree(b *testing.B) {
	for _, mode := range []struct {
		name      string
		ownClocks bool
	}{{"shared", false}, {"own", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cycle := backlogPair(b, mode.ownClocks, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Free(cycle().Payload)
			}
		})
	}
}

// drain receives everything queued at s.
func drain(s *Station) []Packet {
	var out []Packet
	for {
		p, ok := s.Recv()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// churn sends n packets of distinct content from tx to rx and frees each on
// arrival, so every buffer handed back is reused and overwritten.
func churn(t *testing.T, tx, rx *Station, n int) {
	t.Helper()
	payload := make([]Word, MaxPayload)
	for k := 0; k < n; k++ {
		for i := range payload {
			payload[i] = Word(0xC000 + k + i)
		}
		if err := tx.Send(Packet{Dst: rx.Addr(), Type: 9, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		for _, p := range drain(rx) {
			Free(p.Payload)
		}
	}
}

// TestDupCorruptCopiesAreSeparate: the two copies of a duplicated, corrupted
// delivery are equal but separately owned — freeing one, and letting the
// pool hand its buffer to later packets, leaves the other as it arrived.
func TestDupCorruptCopiesAreSeparate(t *testing.T) {
	emptyPoolAfter(t)
	n := New(nil)
	tx, _ := n.Attach(1)
	rx, _ := n.Attach(2)
	n.InjectFaults(FaultConfig{Seed: 3, Dup: Rate{1, 1}, Corrupt: Rate{1, 1}})
	payload := []Word{1, 2, 3, 4, 5, 6, 7, 8}
	if err := tx.Send(Packet{Dst: 2, Type: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	n.ClearFaults()
	got := drain(rx)
	if len(got) != 2 {
		t.Fatalf("a duplicated delivery arrived %d times, want 2", len(got))
	}
	a, b := got[0], got[1]
	if &a.Payload[0] == &b.Payload[0] {
		t.Fatal("the two copies of a duplicated delivery share one buffer")
	}
	if slices.Equal(a.Payload, payload) || a.SumOK() {
		t.Fatalf("corrupted copy %v still reads as the clean payload", a.Payload)
	}
	want := slices.Clone(b.Payload)
	if !slices.Equal(a.Payload, want) {
		t.Fatalf("the copies differ: %v and %v", a.Payload, want)
	}
	Free(a.Payload)
	churn(t, tx, rx, 16)
	if !slices.Equal(b.Payload, want) {
		t.Errorf("kept copy changed after its twin was freed: %v, want %v", b.Payload, want)
	}
}

// TestBroadcastCopiesAreSeparate: each broadcast destination owns its own
// buffer; freeing one station's packet leaves the others' intact.
func TestBroadcastCopiesAreSeparate(t *testing.T) {
	emptyPoolAfter(t)
	n := New(nil)
	tx, _ := n.Attach(1)
	var rxs []*Station
	for a := Addr(2); a <= 4; a++ {
		s, _ := n.Attach(a)
		rxs = append(rxs, s)
	}
	payload := []Word{0xB0, 0xB1, 0xB2}
	if err := tx.Send(Packet{Dst: Broadcast, Type: 5, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	var got []Packet
	for _, s := range rxs {
		p, ok := s.Recv()
		if !ok {
			t.Fatalf("station %d missed the broadcast", s.Addr())
		}
		got = append(got, p)
	}
	Free(got[0].Payload)
	churn(t, tx, rxs[0], 16)
	for i, p := range got[1:] {
		if !slices.Equal(p.Payload, payload) {
			t.Errorf("station %d's broadcast payload changed after another's was freed: %v", rxs[i+1].Addr(), p.Payload)
		}
	}
}
