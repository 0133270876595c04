package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
)

// ringRun builds a fleet of n machines on one medium, each sending msgs
// packets around a ring while receiving its neighbour's, with deliberately
// uneven local work so the machines' clocks drift apart. It returns one
// log line per observed event, machines concatenated in creation order —
// the byte-level artifact the determinism tests compare.
func ringRun(t *testing.T, n, msgs, workers int) string {
	t.Helper()
	net := ether.New(nil)
	logs := make([][]string, n)
	eng := New(Workers(workers), Medium(net))
	for i := 0; i < n; i++ {
		i := i
		clk := sim.NewClock()
		st, err := net.Attach(ether.Addr(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		st.SetClock(clk)
		next := ether.Addr((i+1)%n + 1)
		if err := eng.Add(MachineConfig{
			Name:    fmt.Sprintf("m%d", i),
			Clock:   clk,
			Station: st,
			StartAt: time.Duration(i) * 100 * time.Nanosecond,
			Program: func(m *Machine) error {
				sent, got := 0, 0
				for got < msgs || sent < msgs {
					m.Sync()
					worked := false
					for {
						p, ok := st.Recv()
						if !ok {
							break
						}
						worked = true
						logs[i] = append(logs[i], fmt.Sprintf("m%d recv %d from %d at %v", i, p.Type, p.Src, clk.Now()))
						got++
					}
					if sent < msgs {
						worked = true
						if err := st.Send(ether.Packet{Dst: next, Type: ether.Word(sent)}); err != nil {
							return err
						}
						// Uneven local work, like a disk transfer: machines
						// overrun the window by machine- and step-dependent
						// amounts.
						clk.Advance(time.Duration((i+1)*(sent%7+1)) * 40 * time.Microsecond)
						sent++
					}
					if !worked {
						m.Idle()
					}
				}
				logs[i] = append(logs[i], fmt.Sprintf("m%d done at %v", i, clk.Now()))
				return nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("fleet run (workers=%d): %v", workers, err)
	}
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return strings.Join(all, "\n")
}

// TestWindowedDeterminism is the subsystem's contract: the merged event log
// of an interacting fleet is byte-identical across repeated runs and across
// worker counts.
func TestWindowedDeterminism(t *testing.T) {
	base := ringRun(t, 5, 12, 1)
	if !strings.Contains(base, "recv") {
		t.Fatalf("ring exchanged no traffic:\n%s", base)
	}
	for _, workers := range []int{1, 4, 8} {
		for run := 0; run < 2; run++ {
			got := ringRun(t, 5, 12, workers)
			if got != base {
				t.Fatalf("workers=%d run=%d diverged from workers=1 baseline:\n--- base\n%s\n--- got\n%s", workers, run, base, got)
			}
		}
	}
}

// TestWindowedWakesBlockedReceiver: a machine parked with no deadline of
// its own wakes exactly when a delivery is scheduled for it.
func TestWindowedWakesBlockedReceiver(t *testing.T) {
	net := ether.New(nil)
	ca, cb := sim.NewClock(), sim.NewClock()
	sa, _ := net.Attach(1)
	sb, _ := net.Attach(2)
	sa.SetClock(ca)
	sb.SetClock(cb)
	var gotAt time.Duration
	eng := New(Medium(net))
	if err := eng.Add(MachineConfig{
		Name: "sender", Clock: ca, Station: sa,
		// Boot late so the receiver parks ∞ first.
		StartAt: time.Millisecond,
		Program: func(m *Machine) error {
			return sa.Send(ether.Packet{Dst: 2, Payload: []ether.Word{9}})
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(MachineConfig{
		Name: "receiver", Clock: cb, Station: sb,
		Program: func(m *Machine) error {
			for {
				m.Sync()
				if _, ok := sb.Recv(); ok {
					gotAt = cb.Now()
					return nil
				}
				m.Idle()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wire := time.Duration(1+ether.HeaderWords) * ether.WireTime
	if want := time.Millisecond + wire; gotAt != want {
		t.Fatalf("receiver woke at %v, want exactly the arrival time %v", gotAt, want)
	}
}

// TestDaemonDrains: when every non-daemon has finished, the engine wakes
// the daemons with Draining set and the fleet ends cleanly.
func TestDaemonDrains(t *testing.T) {
	net := ether.New(nil)
	cs, cc := sim.NewClock(), sim.NewClock()
	ss, _ := net.Attach(1)
	sc, _ := net.Attach(2)
	ss.SetClock(cs)
	sc.SetClock(cc)
	served := 0
	eng := New(Medium(net))
	if err := eng.Add(MachineConfig{
		Name: "server", Clock: cs, Station: ss, Daemon: true,
		Program: func(m *Machine) error {
			for !m.Draining() {
				m.Sync()
				if p, ok := ss.Recv(); ok {
					served++
					if err := ss.Send(ether.Packet{Dst: p.Src, Type: p.Type}); err != nil {
						return err
					}
					continue
				}
				m.Idle()
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(MachineConfig{
		Name: "client", Clock: cc, Station: sc,
		Program: func(m *Machine) error {
			if err := sc.Send(ether.Packet{Dst: 1, Type: 77}); err != nil {
				return err
			}
			for {
				m.Sync()
				if p, ok := sc.Recv(); ok {
					if p.Type != 77 {
						return fmt.Errorf("echo type %d", p.Type)
					}
					return nil
				}
				m.Idle()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Fatalf("server served %d requests, want 1", served)
	}
}

// TestStallIsAnError: a non-daemon blocked forever with no scheduled
// delivery fails the run instead of hanging it.
func TestStallIsAnError(t *testing.T) {
	eng := New()
	if err := eng.Add(MachineConfig{
		Name: "waiter", Clock: sim.NewClock(),
		Program: func(m *Machine) error {
			m.Idle() // no deadline, no station: parks forever
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	err := eng.Run()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestErrorAbortsFleet: one machine's error fails Run and unwinds the
// others without deadlock.
func TestErrorAbortsFleet(t *testing.T) {
	boom := errors.New("boom")
	eng := New()
	if err := eng.Add(MachineConfig{
		Name: "failer", Clock: sim.NewClock(),
		Program: func(m *Machine) error { return boom },
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(MachineConfig{
		Name: "bystander", Clock: sim.NewClock(),
		Program: func(m *Machine) error {
			for {
				m.Yield()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestPollUntilChecksDoneBeforeIdle: a poll that ends the wait without doing
// work — as a connection that runs out of retries inside a poll does — must
// end the loop. The machine has no station and requests no wake, so parking
// after that poll would fail the run with ErrStalled.
func TestPollUntilChecksDoneBeforeIdle(t *testing.T) {
	eng := New()
	polls, finished := 0, false
	if err := eng.Add(MachineConfig{
		Name: "waiter", Clock: sim.NewClock(),
		Program: func(m *Machine) error {
			return PollUntil(m.Sync, m.Idle, func() (bool, error) {
				polls++
				finished = true
				return false, nil
			}, func() bool { return finished })
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("err = %v, want the loop to return after its last poll", err)
	}
	if polls != 1 {
		t.Fatalf("polled %d times, want 1", polls)
	}
}

// TestPollUntilReturnsPollError: the first poll error ends the loop and is
// returned as it is.
func TestPollUntilReturnsPollError(t *testing.T) {
	boom := errors.New("boom")
	polls := 0
	err := PollUntil(func() {}, func() { t.Fatal("idled after a poll error") }, func() (bool, error) {
		polls++
		if polls == 3 {
			return false, boom
		}
		return true, nil
	}, func() bool { return false })
	if !errors.Is(err, boom) || polls != 3 {
		t.Fatalf("err = %v after %d polls, want boom after 3", err, polls)
	}
}

// TestPollUntilAllocatesNothing pins the loop's cost: with closure
// arguments, as every fleet program passes them, a call allocates nothing.
func TestPollUntilAllocatesNothing(t *testing.T) {
	syncs, idles, polls := 0, 0, 0
	sync := func() { syncs++ }
	idle := func() { idles++ }
	poll := func() (bool, error) {
		polls++
		return polls%2 == 0, nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		polls = 0
		if err := PollUntil(sync, idle, poll, func() bool { return polls >= 8 }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PollUntil allocates %v times per call, want 0", allocs)
	}
	if syncs == 0 || idles == 0 {
		t.Fatalf("the loop never synced (%d) or idled (%d)", syncs, idles)
	}
}
