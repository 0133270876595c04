package pup

import (
	"cmp"
	"errors"
	"reflect"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/trace"
)

// tuning is what pair sets on both endpoints: a Config plus the window,
// ackEvery and initCwnd fields only this package's tests change; zero
// keeps an endpoint's default.
type tuning struct {
	Config
	window, ackEvery, initCwnd int
}

// endpoint builds an endpoint on st with the tuning applied.
func (tn tuning) endpoint(st *ether.Station) *Endpoint {
	e := NewEndpoint(st, tn.Config)
	e.window = cmp.Or(tn.window, e.window)
	e.ackEvery = cmp.Or(tn.ackEvery, e.ackEvery)
	e.initCwnd = cmp.Or(tn.initCwnd, e.initCwnd)
	return e
}

// pair builds a network, two stations sharing one recorder, and two
// endpoints: srv listening on address 1, cli on address 2. Forced faults
// name a delivery by its sender and that sender's judged index.
func pair(t testing.TB, tn tuning) (net *ether.Network, srv, cli *Endpoint, rec *trace.Recorder) {
	t.Helper()
	net = ether.New(nil)
	rec = trace.New(4096)
	sst, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	sst.SetRecorder(rec)
	cst.SetRecorder(rec)
	srv = tn.endpoint(sst)
	cli = tn.endpoint(cst)
	srv.Listen()
	return net, srv, cli, rec
}

// pump polls both endpoints until done() or the budget runs out.
func pump(t testing.TB, srv, cli *Endpoint, budget int, done func() bool) {
	t.Helper()
	for i := 0; i < budget; i++ {
		if done() {
			return
		}
		if _, err := srv.Poll(); err != nil {
			t.Fatalf("server poll: %v", err)
		}
		if _, err := cli.Poll(); err != nil {
			t.Fatalf("client poll: %v", err)
		}
	}
	if !done() {
		t.Fatalf("not done after %d polls", budget)
	}
}

func TestTransferOverLossyWire(t *testing.T) {
	net, srv, cli, _ := pair(t, tuning{})
	net.InjectFaults(ether.FaultConfig{
		Seed:    99,
		Drop:    ether.Rate{Num: 1, Den: 10},
		Dup:     ether.Rate{Num: 1, Den: 25},
		Corrupt: ether.Rate{Num: 1, Den: 25},
		Delay:   ether.Rate{Num: 1, Den: 25},
	})

	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 50
	var got [][]ether.Word
	var acc *Conn
	next := 0
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if next < msgs {
			err := conn.Send([]ether.Word{ether.Word(next), ether.Word(next * 3)})
			if err == nil {
				next++
			} else if !errors.Is(err, ErrWindowFull) {
				t.Fatalf("send %d: %v", next, err)
			}
		}
		if acc != nil {
			for {
				m, ok := acc.Recv()
				if !ok {
					break
				}
				got = append(got, m)
			}
		}
		return len(got) == msgs
	})
	for i, m := range got {
		if len(m) != 2 || m[0] != ether.Word(i) || m[1] != ether.Word(i*3) {
			t.Fatalf("message %d corrupted or misordered: %v", i, m)
		}
	}

	// Close cleanly despite the loss.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, cli, 100000, func() bool { return conn.State() == StateClosed })
	if conn.Err() != nil {
		t.Fatalf("close ended in error: %v", conn.Err())
	}
}

func TestRetransmitAfterTimeout(t *testing.T) {
	net, srv, cli, rec := pair(t, tuning{})
	// The client's deliveries are judged in order: 0 = its Open. Drop the
	// first data packet (the client's judged index 1).
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 2, N: 1}: ether.FaultDrop},
	})

	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]ether.Word{42}); err != nil {
		t.Fatal(err)
	}

	var acc *Conn
	var got []ether.Word
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if acc != nil {
			if m, ok := acc.Recv(); ok {
				got = m
			}
		}
		return got != nil
	})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v, want [42]", got)
	}
	if n := rec.Counter("pup.retransmit"); n < 1 {
		t.Fatalf("pup.retransmit = %d, want >= 1", n)
	}
	if n := rec.Counter("ether.drop"); n != 1 {
		t.Fatalf("ether.drop = %d, want 1", n)
	}
}

func TestDuplicateAck(t *testing.T) {
	// ackEvery 1 turns off ack batching, so each data packet elicits its
	// own ack and the server's sends are exactly: OpenAck(0), Ack for
	// seq0(1), Ack for seq1(2). Duplicate the first ack: the second copy
	// arrives while seq1 is still unacked and must count as a dup ack, not
	// pop anything twice — and one dup ack is far below the
	// fast-retransmit threshold.
	net, srv, cli, rec := pair(t, tuning{ackEvery: 1})
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 1, N: 1}: ether.FaultDup},
	})

	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]ether.Word{1}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]ether.Word{2}); err != nil {
		t.Fatal(err)
	}

	var acc *Conn
	var got [][]ether.Word
	pump(t, srv, cli, 10000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if acc != nil {
			if m, ok := acc.Recv(); ok {
				got = append(got, m)
			}
		}
		return len(got) == 2 && len(conn.sendQ) == 0
	})
	if n := rec.Counter("pup.dup.ack"); n != 1 {
		t.Fatalf("pup.dup.ack = %d, want 1", n)
	}
	if n := rec.Counter("pup.retransmit"); n != 0 {
		t.Fatalf("pup.retransmit = %d, want 0 (one dup ack must not trigger one)", n)
	}
}

// TestRetransmitCarriesOriginalFlow: the flow word is captured when the
// message enters the send queue, so the retransmission after a forced drop
// is the *same* causal flow — the server's copy, the wire's fault verdict
// and the eventual delivery all reference the ID the client stamped.
func TestRetransmitCarriesOriginalFlow(t *testing.T) {
	net, srv, cli, rec := pair(t, tuning{})
	const flow = 777
	// The client's deliveries: Open(0), first data(1). Drop the data; the
	// client must retransmit it under the original flow.
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 2, N: 1}: ether.FaultDrop},
	})

	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetFlow(flow)
	if err := conn.Send([]ether.Word{42}); err != nil {
		t.Fatal(err)
	}

	var acc *Conn
	var got []ether.Word
	gotFlow := int64(-1)
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if acc != nil {
			if m, f, ok := acc.RecvFlow(); ok {
				got, gotFlow = m, f
			}
		}
		return got != nil
	})
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v, want [42]", got)
	}
	if gotFlow != flow {
		t.Errorf("delivered flow = %d, want %d (retransmission lost the flow)", gotFlow, flow)
	}
	if n := rec.Counter("pup.retransmit"); n < 1 {
		t.Fatalf("pup.retransmit = %d, want >= 1", n)
	}
	// The wire's drop verdict names the flow it interrupted.
	dropOnFlow := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindEtherFault && ev.Name == "drop" && ev.Flow == flow {
			dropOnFlow = true
		}
	}
	if !dropOnFlow {
		t.Error("no drop verdict carries the original flow")
	}
}

// TestDuplicateCarriesOriginalFlow: a duplicated data packet is the same
// wire bytes twice, so both deliveries — and the dup verdict itself — stay
// on the flow the sender stamped.
func TestDuplicateCarriesOriginalFlow(t *testing.T) {
	net, srv, cli, rec := pair(t, tuning{})
	const flow = 613
	// The client's deliveries: Open(0), first data(1). Duplicate the data
	// packet.
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 2, N: 1}: ether.FaultDup},
	})

	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetFlow(flow)
	if err := conn.Send([]ether.Word{7}); err != nil {
		t.Fatal(err)
	}

	var acc *Conn
	var got []ether.Word
	gotFlow := int64(-1)
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if acc != nil {
			if m, f, ok := acc.RecvFlow(); ok {
				got, gotFlow = m, f
			}
		}
		return got != nil && len(conn.sendQ) == 0
	})
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v, want [7] exactly once", got)
	}
	if gotFlow != flow {
		t.Errorf("delivered flow = %d, want %d", gotFlow, flow)
	}
	dups, recvsOnFlow := 0, 0
	for _, ev := range rec.Events() {
		switch {
		case ev.Kind == trace.KindEtherFault && ev.Name == "dup":
			dups++
			if ev.Flow != flow {
				t.Errorf("dup verdict flow = %d, want %d", ev.Flow, flow)
			}
		case ev.Kind == trace.KindEtherRecv && ev.Flow == flow:
			recvsOnFlow++
		}
	}
	if dups != 1 {
		t.Errorf("dup verdicts = %d, want 1", dups)
	}
	if recvsOnFlow < 2 {
		t.Errorf("only %d deliveries carry the flow, want >= 2 (original + duplicate)", recvsOnFlow)
	}
}

func TestWindowFullBackpressure(t *testing.T) {
	// initCwnd at the hard cap takes congestion control out of the
	// picture: the fourth send fills the configured window exactly.
	_, srv, cli, _ := pair(t, tuning{window: 4, initCwnd: 4})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	if a := conn.Avail(); a != 4 {
		t.Fatalf("Avail before sending = %d, want 4", a)
	}
	for i := 0; i < 4; i++ {
		if err := conn.Send([]ether.Word{ether.Word(i & 0xFFFF)}); err != nil {
			t.Fatalf("send %d within window: %v", i, err)
		}
	}
	if a := conn.Avail(); a != 0 {
		t.Fatalf("Avail at full window = %d, want 0", a)
	}
	if err := conn.Send([]ether.Word{9}); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("send past window: got %v, want ErrWindowFull", err)
	}
	// Draining the acks reopens the window.
	pump(t, srv, cli, 1000, func() bool { return len(conn.sendQ) == 0 })
	if a := conn.Avail(); a != 4 {
		t.Fatalf("Avail after drain = %d, want 4", a)
	}
	if err := conn.Send([]ether.Word{9}); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

// TestAvailAndDelayedAck: Avail reports the effective window (congestion
// window included, so a fresh conn offers initCwnd, not the hard cap), and
// a lone pair of in-order packets is acked once, by the delayed-ack timer,
// not twice.
func TestAvailAndDelayedAck(t *testing.T) {
	_, srv, cli, rec := pair(t, tuning{window: 8})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	if a := conn.Avail(); a != 2 {
		t.Fatalf("fresh conn Avail = %d, want InitCwnd = 2", a)
	}
	if err := conn.Send([]ether.Word{1}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]ether.Word{2}); err != nil {
		t.Fatal(err)
	}
	if a := conn.Avail(); a != 0 {
		t.Fatalf("Avail with cwnd in flight = %d, want 0", a)
	}
	pump(t, srv, cli, 1000, func() bool { return len(conn.sendQ) == 0 })
	// Two acked packets double the window in slow start: 2 -> 4.
	if a := conn.Avail(); a != 4 {
		t.Fatalf("Avail after slow-start round = %d, want 4", a)
	}
	// Both packets arrived in order, below ackEvery: exactly one ack went
	// out, and it was the delayed one.
	if n := rec.Counter("pup.ack.sent"); n != 1 {
		t.Fatalf("pup.ack.sent = %d, want 1 (batched)", n)
	}
	if n := rec.Counter("pup.ack.delayed"); n != 1 {
		t.Fatalf("pup.ack.delayed = %d, want 1", n)
	}
}

// holeThenSACK is the selective-repeat core scenario: four packets, the
// second dropped. The receiver must buffer the overtakers, SACK them, and
// the sender must retransmit exactly the hole — one packet, where
// go-back-N resent three. Shared with the replay-identity test.
func holeThenSACK(t *testing.T) (*trace.Recorder, time.Duration) {
	t.Helper()
	// initCwnd 8 lets all four sends fly before the first ack.
	net, srv, cli, rec := pair(t, tuning{initCwnd: 8})
	// The client's deliveries: Open(0), Data seq0(1), seq1(2), seq2(3),
	// seq3(4).
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 2, N: 2}: ether.FaultDrop},
	})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := conn.Send([]ether.Word{ether.Word(i & 0xFFFF)}); err != nil {
			t.Fatal(err)
		}
	}
	var acc *Conn
	var got [][]ether.Word
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if acc != nil {
			for {
				m, ok := acc.Recv()
				if !ok {
					break
				}
				got = append(got, m)
			}
		}
		return len(got) == 4 && len(conn.sendQ) == 0
	})
	for i, m := range got {
		if len(m) != 1 || m[0] != ether.Word(i) {
			t.Fatalf("message %d misordered: %v", i, m)
		}
	}
	if n := rec.Counter("pup.retransmit"); n != 1 {
		t.Fatalf("pup.retransmit = %d, want exactly 1 (only the hole)", n)
	}
	if n := rec.Counter("pup.ooo.buffered"); n != 2 {
		t.Fatalf("pup.ooo.buffered = %d, want 2 (seq2 and seq3 held)", n)
	}
	if n := rec.Counter("pup.data.recv"); n != 4 {
		t.Fatalf("pup.data.recv = %d, want 4", n)
	}
	// The timeout collapsed cwnd to 1 and halved ssthresh to its floor;
	// the recovery ack (3 packets) then grew it back: 1 -> 2 in slow
	// start, then one congestion-avoidance increment. Pinned exactly.
	if conn.cwnd != 3 || conn.ssthresh != 2 {
		t.Fatalf("cwnd/ssthresh after recovery = %d/%d, want 3/2", conn.cwnd, conn.ssthresh)
	}
	return rec, net.Clock().Now()
}

func TestHoleThenSACKReassembly(t *testing.T) { holeThenSACK(t) }

// fastRetransmit drops one packet of six: the acks for the four overtakers
// repeat the same cumulative ack (with growing SACK masks), and the third
// duplicate triggers the retransmission with no timer involved.
// Shared with the replay-identity test.
func fastRetransmit(t *testing.T) (*trace.Recorder, time.Duration) {
	t.Helper()
	// ackEvery 1: per-packet acks, so each overtaker past the hole is one
	// duplicate ack. The client's deliveries: Open(0), seq0(1), seq1(2)
	// ... seq5(6).
	net, srv, cli, rec := pair(t, tuning{initCwnd: 8, ackEvery: 1})
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 2, N: 2}: ether.FaultDrop},
	})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := conn.Send([]ether.Word{ether.Word(i & 0xFFFF)}); err != nil {
			t.Fatal(err)
		}
	}
	var acc *Conn
	var got [][]ether.Word
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		if acc != nil {
			for {
				m, ok := acc.Recv()
				if !ok {
					break
				}
				got = append(got, m)
			}
		}
		return len(got) == 6 && len(conn.sendQ) == 0
	})
	for i, m := range got {
		if len(m) != 1 || m[0] != ether.Word(i) {
			t.Fatalf("message %d misordered: %v", i, m)
		}
	}
	if n := rec.Counter("pup.retransmit.fast"); n != 1 {
		t.Fatalf("pup.retransmit.fast = %d, want 1", n)
	}
	if n := rec.Counter("pup.retransmit.rto"); n != 0 {
		t.Fatalf("pup.retransmit.rto = %d, want 0 (no timer may fire)", n)
	}
	if n := rec.Counter("pup.retransmit"); n != 1 {
		t.Fatalf("pup.retransmit = %d, want exactly 1", n)
	}
	// Four overtakers = four duplicate acks; the retransmission fires on
	// the third, and the fourth is absorbed without a second resend.
	if n := rec.Counter("pup.dup.ack"); n != 4 {
		t.Fatalf("pup.dup.ack = %d, want 4", n)
	}
	// Multiplicative decrease at loss: five in flight halve to 2/2; the
	// recovery ack (five packets) buys two congestion-avoidance
	// increments: 2 -> 4. Pinned exactly.
	if conn.cwnd != 4 || conn.ssthresh != 2 {
		t.Fatalf("cwnd/ssthresh after recovery = %d/%d, want 4/2", conn.cwnd, conn.ssthresh)
	}
	return rec, net.Clock().Now()
}

func TestFastRetransmit(t *testing.T) { fastRetransmit(t) }

// cwndTrajectory pins the loss-free growth curve exactly: slow start adds
// one packet per acked packet from initCwnd to the window cap, and the cap
// holds. Shared with the replay-identity test.
func cwndTrajectory(t *testing.T) (*trace.Recorder, time.Duration) {
	t.Helper()
	net, srv, cli, rec := pair(t, tuning{window: 8, ackEvery: 1})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	var acc *Conn
	var trajectory []int
	last := conn.cwnd
	sent, delivered := 0, 0
	const msgs = 10
	pump(t, srv, cli, 100000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		// Lock-step: one message per round trip, so every ack pops exactly
		// one packet and every cwnd change is observed individually.
		if sent < msgs && len(conn.sendQ) == 0 {
			if err := conn.Send([]ether.Word{ether.Word(sent & 0xFFFF)}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if acc != nil {
			for {
				_, ok := acc.Recv()
				if !ok {
					break
				}
				delivered++
			}
		}
		if conn.cwnd != last {
			trajectory = append(trajectory, conn.cwnd)
			last = conn.cwnd
		}
		return delivered == msgs && len(conn.sendQ) == 0
	})
	want := []int{3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(trajectory, want) {
		t.Fatalf("cwnd trajectory = %v, want %v", trajectory, want)
	}
	return rec, net.Clock().Now()
}

func TestCwndTrajectoryPinned(t *testing.T) { cwndTrajectory(t) }

// rtoAdaptation runs the same five-message exchange over a perfect wire
// and over one that delays every delivery by 15 ms, and checks the
// estimator moved the timeout to match — down near the floor when round
// trips are cheap, above the round trip (with no spurious retransmission)
// when they are slow. Shared with the replay-identity test.
func rtoAdaptation(t *testing.T) (*trace.Recorder, time.Duration) {
	t.Helper()
	exchange := func(cfg ether.FaultConfig, inject bool) (*Conn, *trace.Recorder, time.Duration) {
		net, srv, cli, rec := pair(t, tuning{ackEvery: 1})
		if inject {
			net.InjectFaults(cfg)
		}
		conn, err := cli.Dial(1)
		if err != nil {
			t.Fatal(err)
		}
		var acc *Conn
		sent, delivered := 0, 0
		pump(t, srv, cli, 400000, func() bool {
			if acc == nil {
				acc, _ = srv.Accept()
			}
			// One message at a time: each round trip is one clean sample.
			if sent < 5 && sent == delivered {
				if err := conn.Send([]ether.Word{ether.Word(sent & 0xFFFF)}); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			if acc != nil {
				if _, ok := acc.Recv(); ok {
					delivered++
				}
			}
			return delivered == 5
		})
		return conn, rec, net.Clock().Now()
	}

	fast, _, _ := exchange(ether.FaultConfig{}, false)
	if !fast.rttValid {
		t.Fatal("no RTT sample landed on a loss-free exchange")
	}
	if got := fast.rto(); got >= 40*time.Millisecond {
		t.Fatalf("adapted RTO = %v, want below the 40ms pre-sample default", got)
	}

	delayCfg := ether.FaultConfig{
		Delay:     ether.Rate{Num: 1, Den: 1},
		DelayTime: 15 * time.Millisecond,
	}
	slow, rec, clock := exchange(delayCfg, true)
	// Every delivery waits 15 ms each way: the smoothed RTT must land just
	// above 30 ms, and the timeout must ride above it — high enough that
	// not one spurious retransmission fired.
	if slow.srtt < 30*time.Millisecond || slow.srtt > 40*time.Millisecond {
		t.Fatalf("srtt under 2x15ms scripted delay = %v, want ~30-40ms", slow.srtt)
	}
	if got := slow.rto(); got <= slow.srtt {
		t.Fatalf("RTO %v at or below srtt %v", got, slow.srtt)
	}
	if n := rec.Counter("pup.retransmit"); n != 0 {
		t.Fatalf("pup.retransmit = %d, want 0 (the adapted RTO must clear the delay)", n)
	}
	if fast.rto() >= slow.rto() {
		t.Fatalf("RTO did not adapt: fast wire %v >= delayed wire %v", fast.rto(), slow.rto())
	}
	return rec, clock
}

func TestRTOAdaptation(t *testing.T) { rtoAdaptation(t) }

// TestEdgeCaseReplayByteIdentity re-runs every Force-scripted edge case and
// demands the second run's trace is event-for-event identical to the first
// — the property internal/experiments' TestDeterminism holds over whole
// experiments, held at the unit level where the edge cases live.
func TestEdgeCaseReplayByteIdentity(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(*testing.T) (*trace.Recorder, time.Duration)
	}{
		{"hole-then-sack", holeThenSACK},
		{"fast-retransmit", fastRetransmit},
		{"cwnd-trajectory", cwndTrajectory},
		{"rto-adaptation", rtoAdaptation},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rec1, clock1 := sc.run(t)
			rec2, clock2 := sc.run(t)
			if clock1 != clock2 {
				t.Fatalf("replay diverged: clock %v vs %v", clock1, clock2)
			}
			ev1, ev2 := rec1.Events(), rec2.Events()
			if len(ev1) != len(ev2) {
				t.Fatalf("replay diverged: %d events vs %d", len(ev1), len(ev2))
			}
			for i := range ev1 {
				if !reflect.DeepEqual(ev1[i], ev2[i]) {
					t.Fatalf("replay diverged at event %d: %+v vs %+v", i, ev1[i], ev2[i])
				}
			}
		})
	}
}

func TestRetriesExhausted(t *testing.T) {
	net, _, cli, rec := pair(t, tuning{Config: Config{MaxRetries: 3}})
	// A wire that loses everything: the peer never hears the Open.
	net.InjectFaults(ether.FaultConfig{
		Seed: 1,
		Drop: ether.Rate{Num: 1, Den: 1},
	})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && conn.Err() == nil; i++ {
		if _, err := cli.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(conn.Err(), ErrRetriesExhausted) {
		t.Fatalf("conn.Err() = %v, want ErrRetriesExhausted", conn.Err())
	}
	if conn.State() != StateClosed {
		t.Fatalf("state = %v, want closed", conn.State())
	}
	if n := rec.Counter("pup.fail"); n != 1 {
		t.Fatalf("pup.fail = %d, want 1", n)
	}
	// Sends on the dead conn surface the same typed error.
	if err := conn.Send([]ether.Word{1}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("send on dead conn: got %v, want ErrRetriesExhausted", err)
	}
}

func TestMessageTooBig(t *testing.T) {
	_, _, cli, _ := pair(t, tuning{})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(make([]ether.Word, MaxData+1)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("got %v, want ErrTooBig", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, int64) {
		net, srv, cli, rec := pair(t, tuning{})
		net.InjectFaults(ether.FaultConfig{
			Seed: 7,
			Drop: ether.Rate{Num: 1, Den: 8},
			Dup:  ether.Rate{Num: 1, Den: 16},
		})
		conn, err := cli.Dial(1)
		if err != nil {
			t.Fatal(err)
		}
		var acc *Conn
		count, next := 0, 0
		pump(t, srv, cli, 100000, func() bool {
			if acc == nil {
				acc, _ = srv.Accept()
			}
			if next < 20 {
				if conn.Send([]ether.Word{ether.Word(next & 0xFFFF)}) == nil {
					next++
				}
			}
			if acc != nil {
				if _, ok := acc.Recv(); ok {
					count++
				}
			}
			return count == 20
		})
		return rec.Counter("pup.retransmit"), int64(net.Clock().Now())
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1 != r2 || t1 != t2 {
		t.Fatalf("same-seed runs diverged: retransmits %d vs %d, clock %d vs %d", r1, r2, t1, t2)
	}
}

// TestCloseAfterLostOpenAck loses the server's first OpenAck and closes the
// dialer before any retransmitted Open is answered. The Open stays pending
// on the closing conn's control timer; the OpenAck that answers its
// retransmission must settle it, so the Close handshake runs and the conn
// closes cleanly instead of dying of exhausted retries.
func TestCloseAfterLostOpenAck(t *testing.T) {
	net, srv, cli, rec := pair(t, tuning{})
	// The server's first delivery (its judged index 0) is the OpenAck.
	net.InjectFaults(ether.FaultConfig{
		Force: map[ether.Judged]ether.Fault{{Src: 1, N: 0}: ether.FaultDrop},
	})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Poll(); err != nil {
		t.Fatal(err)
	}
	acc, ok := srv.Accept()
	if !ok {
		t.Fatal("server accepted nothing")
	}
	if err := conn.Send([]ether.Word{7}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	pump(t, srv, cli, 100000, func() bool {
		return conn.State() == StateClosed && acc.State() == StateClosed
	})
	if err := conn.Err(); err != nil {
		t.Fatalf("close ended in error: %v", err)
	}
	if m, ok := acc.Recv(); !ok || len(m) != 1 || m[0] != 7 {
		t.Fatalf("server got %v, want [7]", m)
	}
	if n := rec.Counter("ether.drop"); n != 1 {
		t.Fatalf("ether.drop = %d, want 1", n)
	}
	if n := rec.Counter("pup.close"); n != 1 {
		t.Fatalf("pup.close = %d, want 1", n)
	}
}

// TestKeptMessageSurvivesPoolReuse: a received message the application never
// frees is its own to keep. A thousand further messages then cycle through
// the payload pool — wire copies, retransmit copies, out-of-order buffers,
// each received message freed — over a wire that drops, duplicates,
// corrupts and delays, and the kept message still reads as it arrived.
func TestKeptMessageSurvivesPoolReuse(t *testing.T) {
	net, srv, cli, _ := pair(t, tuning{})
	net.InjectFaults(ether.FaultConfig{
		Seed:    5,
		Drop:    ether.Rate{Num: 1, Den: 10},
		Dup:     ether.Rate{Num: 1, Den: 20},
		Corrupt: ether.Rate{Num: 1, Den: 20},
		Delay:   ether.Rate{Num: 1, Den: 20},
	})
	conn, err := cli.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	message := func(k int) []ether.Word {
		m := make([]ether.Word, MaxData)
		for i := range m {
			m[i] = ether.Word(k*31 + i)
		}
		return m
	}
	var acc *Conn
	const further = 1000
	sent, got := 0, 0
	var kept []ether.Word
	pump(t, srv, cli, 1_000_000, func() bool {
		if acc == nil {
			acc, _ = srv.Accept()
		}
		for sent <= further && conn.Avail() > 0 {
			if err := conn.Send(message(sent)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		for acc != nil {
			m, ok := acc.Recv()
			if !ok {
				break
			}
			if !reflect.DeepEqual(m, message(got)) {
				t.Fatalf("message %d arrived as %v", got, m[:4])
			}
			if got == 0 {
				kept = m
			} else {
				ether.Free(m)
			}
			got++
		}
		return got == further+1
	})
	if want := message(0); !reflect.DeepEqual(kept, want) {
		t.Errorf("the kept message changed while %d more cycled through the pool", further)
	}
}
