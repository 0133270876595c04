package experiments

// E13 saturates one ether segment: two dozen stations each push a sustained
// stream at a single sink over a 10%-loss wire. The paper's open-system
// claim (§1) implies the shared wire is a commons — the transport must keep
// every flow live and give each a fair share without any central allocator,
// exactly what AIMD congestion control promises. Fairness is reported as
// Jain's index over per-flow goodput; the experiment fails outright if any
// delivered word differs from what its sender put in.

import (
	"fmt"
	"time"

	"altoos/internal/ether"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

const (
	e13Senders  = 24
	e13Messages = 64
	// Each message fills one maximal packet: saturation means full frames.
	e13MsgWords = pup.MaxData
)

// e13Word is the deterministic content pattern; the sink revalidates every
// word of every delivered message against it.
func e13Word(sender, msg, i int) ether.Word {
	return ether.Word((sender*31 + msg*7 + i*3) & 0xFFFF)
}

// e13Saturation runs the saturation + fairness experiment. The sink and all
// 24 senders each trace into their own machine's recorder.
func e13Saturation(_ int, machine func(string) *trace.Recorder) (*Result, error) {
	recs := newRecorders(machine)

	clock := sim.NewClock()
	wire := ether.New(clock)
	sinkSt, err := wire.Attach(1)
	if err != nil {
		return nil, err
	}
	sinkSt.SetRecorder(recs.get("sink"))
	sink := pup.NewEndpoint(sinkSt, pup.Config{})
	sink.Listen()
	wire.InjectFaults(ether.FaultConfig{
		Seed:    13,
		Drop:    ether.Rate{Num: 1, Den: 10},
		Corrupt: ether.Rate{Num: 1, Den: 50},
	})

	type sender struct {
		ep   *pup.Endpoint
		conn *pup.Conn
		sent int
	}
	senders := make([]*sender, e13Senders)
	for i := range senders {
		st, err := wire.Attach(ether.Addr((2 + i) & 0xFFFF))
		if err != nil {
			return nil, err
		}
		mrec := recs.get(fmt.Sprintf("sender%02d", i))
		st.SetRecorder(mrec)
		ep := pup.NewEndpoint(st, pup.Config{Seed: uint64(i + 1)})
		conn, err := ep.Dial(1)
		if err != nil {
			return nil, err
		}
		// One trace flow per stream, allocated on the sender's own machine,
		// carried in every header — retransmissions included.
		conn.SetFlow(mrec.NextFlow())
		senders[i] = &sender{ep: ep, conn: conn}
	}

	// Drive everything in one poll loop on the shared clock: the sink
	// accepts and drains, then each sender keeps its window full until its
	// stream is done. Per-flow completion is the sim time the sink
	// delivered the flow's last message, in order and intact.
	accepted := make([]*pup.Conn, e13Senders)
	delivered := make([]int, e13Senders)
	completion := make([]time.Duration, e13Senders)
	finished, corrupt := 0, 0
	msg := make([]ether.Word, e13MsgWords)
	for round := 0; finished < e13Senders; round++ {
		if round >= 4_000_000 {
			return nil, fmt.Errorf("e13: saturation run never completed (%d/%d flows)", finished, e13Senders)
		}
		if _, err := sink.Poll(); err != nil {
			return nil, err
		}
		for {
			conn, ok := sink.Accept()
			if !ok {
				break
			}
			accepted[int(conn.Remote())-2] = conn
		}
		for i, conn := range accepted {
			if conn == nil {
				continue
			}
			for {
				data, ok := conn.Recv()
				if !ok {
					break
				}
				if len(data) != e13MsgWords {
					corrupt++
				} else {
					for j, w := range data {
						if w != e13Word(i, delivered[i], j) {
							corrupt++
							break
						}
					}
				}
				delivered[i]++
				if delivered[i] == e13Messages {
					completion[i] = clock.Now()
					finished++
				}
			}
		}
		for i, s := range senders {
			if _, err := s.ep.Poll(); err != nil {
				return nil, err
			}
			for s.sent < e13Messages && s.conn.Avail() > 0 {
				for j := range msg {
					msg[j] = e13Word(i, s.sent, j)
				}
				if err := s.conn.Send(msg); err != nil {
					return nil, fmt.Errorf("e13 sender %d: %w", i, err)
				}
				s.sent++
			}
		}
	}
	total := clock.Now()
	if corrupt != 0 {
		return nil, fmt.Errorf("e13: %d corrupted deliveries leaked through the transport", corrupt)
	}

	// Tear down cleanly so the conns' final state is part of the trace:
	// senders first, sink last.
	for _, s := range senders {
		if err := s.conn.Close(); err != nil {
			return nil, err
		}
	}
	for round := 0; ; round++ {
		if round >= 1_000_000 {
			return nil, fmt.Errorf("e13: close handshakes never completed")
		}
		open := false
		for _, s := range senders {
			if _, err := s.ep.Poll(); err != nil {
				return nil, err
			}
			if s.conn.State() != pup.StateClosed {
				open = true
			}
		}
		if _, err := sink.Poll(); err != nil {
			return nil, err
		}
		if !open {
			break
		}
	}

	// Per-flow goodput and Jain's fairness index: J = (Σx)² / (n·Σx²),
	// 1.0 when every flow got an equal share, 1/n when one flow starved
	// the rest.
	const flowWords = e13Messages * e13MsgWords
	xs := make([]float64, e13Senders)
	var sum, sumSq float64
	minX, maxX := 0.0, 0.0
	for i, t := range completion {
		xs[i] = flowWords / t.Seconds()
		sum += xs[i]
		sumSq += xs[i] * xs[i]
		if i == 0 || xs[i] < minX {
			minX = xs[i]
		}
		if i == 0 || xs[i] > maxX {
			maxX = xs[i]
		}
	}
	jain := sum * sum / (float64(e13Senders) * sumSq)
	goodput := float64(e13Senders*flowWords) / total.Seconds()
	retrans := recs.counter("pup.retransmit")
	drops := recs.counter("ether.drop")

	res := &Result{
		ID:    "E13",
		Title: "segment saturation: two dozen flows share one lossy wire",
		Claim: "§1: the network is a shared facility — flows must coexist without a central allocator",
	}
	res.add("flows x messages", "%d x %d full packets (%d words each)", e13Senders, e13Messages, e13MsgWords)
	res.add("corrupted deliveries", "%d (checksum + retransmission hid every fault)", corrupt)
	res.add("packets dropped/corrupted by the medium", "%d / %d", drops, recs.counter("ether.corrupt"))
	res.add("retransmissions", "%d", retrans)
	res.add("aggregate goodput", "%.0f words/s over %.2f s simulated", goodput, total.Seconds())
	res.add("per-flow goodput", "min %.0f, max %.0f words/s", minX, maxX)
	res.add("Jain fairness index", "%.4f (1.0 = perfectly fair)", jain)
	res.metric("jain_fairness_pct", 100*jain)
	res.metric("goodput_words_per_sec_total", goodput)
	res.metric("retransmits", float64(retrans))
	return res, nil
}
