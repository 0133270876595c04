package fleet_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/fleet"
	"altoos/internal/sim"
)

// randomFleet builds a seeded random fleet on a faulty medium: up to 64
// machines, some with two stations, some daemons, the rest finishing after
// a random number of steps. Each step mixes Sync, Recv, Pending, unicast
// and broadcast Send, local work, Yield and RequestWake+Idle; daemons answer
// some of what they receive and otherwise idle until a delivery. It returns
// the engine and a function rendering every machine's log, in creation
// order, once the engine has run.
func randomFleet(t *testing.T, seed uint64, workers int) (*fleet.Engine, func() string) {
	t.Helper()
	shape := sim.NewRand(seed)
	net := ether.New(nil)
	net.InjectFaults(ether.FaultConfig{
		Seed:      seed,
		Drop:      ether.Rate{Num: 1, Den: 20},
		Dup:       ether.Rate{Num: 1, Den: 8},
		Delay:     ether.Rate{Num: 1, Den: 6},
		DelayTime: 300 * time.Microsecond,
	})
	// A bounded round budget turns a scheduling bug that livelocks the
	// fleet into a prompt failure.
	eng := fleet.New(fleet.Workers(workers), fleet.Medium(net), fleet.MaxRounds(50_000))
	n := 2 + shape.Intn(63)
	var addrs []ether.Addr
	type spec struct {
		sts    []*ether.Station
		clk    *sim.Clock
		daemon bool
	}
	specs := make([]spec, n)
	for i := range specs {
		sp := spec{clk: sim.NewClock(), daemon: shape.Bool(1, 4)}
		nst := 1 + shape.Intn(2)
		for k := 0; k < nst; k++ {
			addr := ether.Addr(1 + len(addrs))
			st, err := net.Attach(addr)
			if err != nil {
				t.Fatal(err)
			}
			st.SetClock(sp.clk)
			sp.sts = append(sp.sts, st)
			addrs = append(addrs, addr)
		}
		specs[i] = sp
	}
	logs := make([][]string, n)
	for i, sp := range specs {
		i, sp := i, sp
		rnd := sim.NewRand(seed*1000 + uint64(i) + 1)
		steps := 1 + shape.Intn(60)
		logf := func(format string, args ...any) {
			logs[i] = append(logs[i], fmt.Sprintf("%v ", sp.clk.Now())+fmt.Sprintf(format, args...))
		}
		recv := func() (got []ether.Packet) {
			for k, st := range sp.sts {
				for {
					p, ok := st.Recv()
					if !ok {
						break
					}
					logf("st%d recv type %d from %d", k, p.Type, p.Src)
					got = append(got, p)
				}
			}
			return got
		}
		send := func(dst ether.Addr, typ int) error {
			st := sp.sts[rnd.Intn(len(sp.sts))]
			logf("send type %d to %d from %d", typ, dst, st.Addr())
			return st.Send(ether.Packet{Dst: dst, Type: ether.Word(typ), Payload: make([]ether.Word, rnd.Intn(8))})
		}
		user := func(m *fleet.Machine) error {
			for step := 0; step < steps; step++ {
				m.Sync()
				recv()
				switch rnd.Intn(7) {
				case 0:
					if err := send(addrs[rnd.Intn(len(addrs))], step); err != nil {
						return err
					}
				case 1:
					if err := send(ether.Broadcast, step); err != nil {
						return err
					}
				case 2:
					sp.clk.Advance(time.Duration(rnd.Intn(80)) * time.Microsecond)
				case 3:
					m.Yield()
				case 4:
					sp.clk.RequestWake(sp.clk.Now() + time.Duration(rnd.Intn(400))*time.Microsecond)
					m.Idle()
				case 5:
					logf("pending %d", sp.sts[0].Pending())
				case 6:
					// A wake already in the past: Idle resumes at once.
					sp.clk.RequestWake(sp.clk.Now() / 2)
					m.Idle()
				}
			}
			logf("done")
			return nil
		}
		daemon := func(m *fleet.Machine) error {
			budget := rnd.Intn(12)
			for !m.Draining() {
				m.Sync()
				got := recv()
				for _, p := range got {
					if budget > 0 && rnd.Bool(1, 2) {
						budget--
						if err := send(p.Src, int(p.Type)+1000); err != nil {
							return err
						}
					}
				}
				if len(got) == 0 {
					if budget > 0 && rnd.Bool(1, 3) {
						budget--
						sp.clk.RequestWake(sp.clk.Now() + time.Duration(rnd.Intn(200))*time.Microsecond)
					}
					m.Idle()
				}
			}
			logf("drained")
			return nil
		}
		cfg := fleet.MachineConfig{
			Name:    fmt.Sprintf("m%02d", i),
			Clock:   sp.clk,
			Daemon:  sp.daemon,
			StartAt: time.Duration(shape.Intn(200)) * time.Microsecond,
			Program: user,
		}
		if sp.daemon {
			cfg.Program = daemon
		}
		if len(sp.sts) == 1 {
			cfg.Station = sp.sts[0]
		} else {
			cfg.Stations = sp.sts
		}
		if err := eng.Add(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return eng, func() string {
		var b strings.Builder
		for i, l := range logs {
			fmt.Fprintf(&b, "== m%02d\n%s\n", i, strings.Join(l, "\n"))
		}
		return b.String()
	}
}

// TestScheduleMatchesRescan is the event queue's equivalence proof: over
// seeded random fleets, at every barrier, the heap's batch is exactly the
// batch a full rescan and sort of every live machine would have formed, and
// each fleet's logs are byte-identical at workers 1 and 4.
func TestScheduleMatchesRescan(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		var base string
		for _, workers := range []int{1, 4} {
			eng, logs := randomFleet(t, seed, workers)
			oracle := fleet.WatchSchedule(eng)
			if err := eng.Run(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if len(oracle.Mismatches) > 0 {
				t.Fatalf("seed %d workers %d: %d of %d windows differ from the rescan; first: %s",
					seed, workers, len(oracle.Mismatches), oracle.Windows, oracle.Mismatches[0])
			}
			if oracle.Windows == 0 || oracle.Batched == 0 {
				t.Fatalf("seed %d workers %d: oracle saw %d windows, %d batched machines", seed, workers, oracle.Windows, oracle.Batched)
			}
			got := logs()
			if !strings.Contains(got, "recv") {
				t.Fatalf("seed %d: the fleet exchanged no traffic", seed)
			}
			if base == "" {
				base = got
			} else if got != base {
				t.Fatalf("seed %d: workers %d diverged from workers 1", seed, workers)
			}
		}
	}
}
