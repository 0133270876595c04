package ether

import (
	"testing"
	"time"

	"altoos/internal/trace"
)

// faultPair builds a two-station network with a fault model attached.
func faultPair(t *testing.T, cfg FaultConfig) (*Network, *FaultMedium, *Station, *Station) {
	t.Helper()
	n := New(nil)
	f := n.InjectFaults(cfg)
	a, err := n.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	return n, f, a, b
}

func TestForcedDrop(t *testing.T) {
	_, f, a, b := faultPair(t, FaultConfig{Force: map[Judged]Fault{{Src: 1}: FaultDrop}})
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{7}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("dropped packet was delivered")
	}
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{8}}); err != nil {
		t.Fatal(err)
	}
	if p, ok := b.Recv(); !ok || p.Payload[0] != 8 {
		t.Fatalf("unforced delivery broken: %v %v", p, ok)
	}
	st := f.Stats()
	if st.Judged != 2 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 2 judged 1 dropped", st)
	}
}

func TestForcedDupDeliversTwice(t *testing.T) {
	_, f, a, b := faultPair(t, FaultConfig{Force: map[Judged]Fault{{Src: 1}: FaultDup}})
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{9}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, ok := b.Recv()
		if !ok || p.Payload[0] != 9 {
			t.Fatalf("copy %d: %v %v", i, p, ok)
		}
		if !p.SumOK() {
			t.Fatalf("copy %d fails its checksum", i)
		}
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("more than two copies delivered")
	}
	if st := f.Stats(); st.Dupped != 1 {
		t.Fatalf("stats = %+v, want 1 dupped", st)
	}
}

// TestForcedCorruptIsDetectable is the checksum contract: the flipped bit
// lands after Check was stamped, so SumOK exposes the damage.
func TestForcedCorruptIsDetectable(t *testing.T) {
	_, f, a, b := faultPair(t, FaultConfig{Force: map[Judged]Fault{{Src: 1}: FaultCorrupt}})
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	p, ok := b.Recv()
	if !ok {
		t.Fatal("corrupted packet must still be delivered")
	}
	if p.SumOK() {
		t.Fatal("corruption was not detectable: checksum still matches")
	}
	if st := f.Stats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted", st)
	}
}

// TestForcedDelayHoldsUntilRelease: a delayed packet is invisible until the
// simulated clock passes arrival + DelayTime, then promotes on poll.
func TestForcedDelayHoldsUntilRelease(t *testing.T) {
	n, f, a, b := faultPair(t, FaultConfig{
		DelayTime: 5 * time.Millisecond,
		Force:     map[Judged]Fault{{Src: 1}: FaultDelay},
	})
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{4}}); err != nil {
		t.Fatal(err)
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("delayed packet visible immediately: Pending = %d", got)
	}
	n.Clock().Advance(5 * time.Millisecond)
	if got := b.Pending(); got != 1 {
		t.Fatalf("delayed packet not promoted after release: Pending = %d", got)
	}
	if p, ok := b.Recv(); !ok || p.Payload[0] != 4 || !p.SumOK() {
		t.Fatalf("promoted packet broken: %v %v", p, ok)
	}
	if st := f.Stats(); st.Delayed != 1 {
		t.Fatalf("stats = %+v, want 1 delayed", st)
	}
}

// TestFaultsAreSeededDeterministic: two networks with equal seeds and equal
// workloads make identical fault decisions; a different seed diverges.
func TestFaultsAreSeededDeterministic(t *testing.T) {
	run := func(seed uint64) FaultStats {
		_, f, a, b := faultPair(t, FaultConfig{
			Seed:    seed,
			Drop:    Rate{Num: 1, Den: 4},
			Dup:     Rate{Num: 1, Den: 8},
			Corrupt: Rate{Num: 1, Den: 8},
		})
		for i := 0; i < 200; i++ {
			if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{Word(i & 0xFFFF)}}); err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := b.Recv(); !ok {
					break
				}
			}
		}
		return f.Stats()
	}
	first, again := run(3), run(3)
	if first != again {
		t.Fatalf("same seed diverged: %+v vs %+v", first, again)
	}
	if first.Dropped == 0 || first.Dupped == 0 || first.Corrupted == 0 {
		t.Fatalf("rates never fired across 200 sends: %+v", first)
	}
	if other := run(4); other == first {
		t.Fatalf("different seed produced identical faults: %+v", other)
	}
}

// TestZeroRatesConsumeNoRandomness: adding a zero-rate class must not shift
// the PRNG sequence of the classes that are on.
func TestZeroRatesConsumeNoRandomness(t *testing.T) {
	run := func(cfg FaultConfig) FaultStats {
		_, f, a, b := faultPair(t, cfg)
		for i := 0; i < 100; i++ {
			if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{1}}); err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := b.Recv(); !ok {
					break
				}
			}
		}
		return f.Stats()
	}
	dropOnly := run(FaultConfig{Seed: 9, Drop: Rate{Num: 1, Den: 3}})
	withZeros := run(FaultConfig{Seed: 9, Drop: Rate{Num: 1, Den: 3}, Dup: Rate{}, Delay: Rate{Num: 0, Den: 5}})
	if dropOnly.Dropped != withZeros.Dropped {
		t.Fatalf("zero rates perturbed the PRNG: %d vs %d drops", dropOnly.Dropped, withZeros.Dropped)
	}
}

// TestFaultCountersTraced: the medium's verdicts show up as trace counters on
// the sender's recorder — the evidence E10 cites.
func TestFaultCountersTraced(t *testing.T) {
	_, _, a, b := faultPair(t, FaultConfig{Force: map[Judged]Fault{
		{Src: 1, N: 0}: FaultDrop, {Src: 1, N: 1}: FaultDup, {Src: 1, N: 2}: FaultCorrupt, {Src: 1, N: 3}: FaultDelay,
	}})
	rec := trace.New(64)
	a.SetRecorder(rec)
	for i := 0; i < 4; i++ {
		if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{Word(i & 0xFFFF)}}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		if _, ok := b.Recv(); !ok {
			break
		}
	}
	for name, want := range map[string]int64{
		"ether.drop": 1, "ether.dup": 1, "ether.corrupt": 1, "ether.delay": 1,
	} {
		if got := rec.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestClearFaultsRestoresPerfection.
func TestClearFaults(t *testing.T) {
	n, f, a, b := faultPair(t, FaultConfig{Drop: Rate{Num: 1, Den: 1}})
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Recv(); ok {
		t.Fatal("certain drop delivered anyway")
	}
	n.ClearFaults()
	if err := a.Send(Packet{Dst: 2, Type: 1, Payload: []Word{2}}); err != nil {
		t.Fatal(err)
	}
	if p, ok := b.Recv(); !ok || p.Payload[0] != 2 {
		t.Fatalf("perfect medium not restored: %v %v", p, ok)
	}
	if st := f.Stats(); st.Judged != 1 {
		t.Fatalf("detached medium kept judging: %+v", st)
	}
}
