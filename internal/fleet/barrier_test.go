package fleet_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/fleet"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// barrierFleet is the window-barrier workload: n machines on one medium,
// one of which does a microsecond of work and yields, yields times (forever
// if yields < 0), while the other n-1 are daemons idling until a delivery
// that never comes. Nearly every window runs exactly one machine, so the
// cost measured is the barrier's and the handoff's, not the machines'.
func barrierFleet(t testing.TB, n, yields int) *fleet.Engine {
	net := ether.New(nil)
	// No round cap: a fast benchmark asks for more yields than the default.
	eng := fleet.New(fleet.Medium(net), fleet.MaxRounds(math.MaxInt))
	for i := 0; i < n; i++ {
		clk := sim.NewClock()
		st, err := net.Attach(ether.Addr(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		st.SetClock(clk)
		cfg := fleet.MachineConfig{Name: "idler", Clock: clk, Station: st, Daemon: true, Program: func(m *fleet.Machine) error {
			for !m.Draining() {
				m.Idle()
			}
			return nil
		}}
		if i == 0 {
			cfg = fleet.MachineConfig{Name: "yielder", Clock: clk, Station: st, Program: func(m *fleet.Machine) error {
				for n := 0; yields < 0 || n < yields; n++ {
					clk.Advance(time.Microsecond)
					m.Yield()
				}
				return nil
			}}
		}
		if err := eng.Add(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// BenchmarkWindowBarrier is one window of a 100-machine fleet in which one
// machine is runnable: the barrier, one activation, and the re-key.
func BenchmarkWindowBarrier(b *testing.B) { benchmarkYields(b, 100) }

// BenchmarkHandoff is one Yield round trip on a one-machine fleet: the
// switch into the machine's coroutine and back, plus a one-entry barrier.
func BenchmarkHandoff(b *testing.B) { benchmarkYields(b, 1) }

// benchmarkYields runs barrierFleet with n machines for b.N yields.
func benchmarkYields(b *testing.B, n int) {
	eng := barrierFleet(b, n, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestSteadyWindowAllocatesNothing pins the barrier's allocation cost: once
// every machine has booted, a window in which nothing is sent allocates
// nothing — no batch slice, no sort, no per-window bookkeeping.
func TestSteadyWindowAllocatesNothing(t *testing.T) { testSteadyAllocatesNothing(t, 100) }

// TestSteadyHandoffAllocatesNothing pins the handoff's allocation cost:
// resuming a parked machine and parking it again allocates nothing.
func TestSteadyHandoffAllocatesNothing(t *testing.T) { testSteadyAllocatesNothing(t, 1) }

// testSteadyAllocatesNothing drives barrierFleet with n machines window by
// window and demands that a steady-state window allocate nothing.
func testSteadyAllocatesNothing(t *testing.T, n int) {
	eng := barrierFleet(t, n, -1)
	fleet.DriveWindows(eng, func(window func(int) (bool, error)) {
		round := 0
		step := func() {
			if done, err := window(round); done || err != nil {
				t.Fatalf("window %d: done=%v err=%v", round, done, err)
			}
			round++
		}
		for i := 0; i < 10; i++ {
			step() // boot: every machine's first activation, then steady state
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("a steady-state window allocates %v times, want 0", allocs)
		}
	})
}

// mustAdd adds cfg to eng and fails the test if Add refuses it.
func mustAdd(t *testing.T, eng *fleet.Engine, cfg fleet.MachineConfig) {
	t.Helper()
	if err := eng.Add(cfg); err != nil {
		t.Fatal(err)
	}
}

// addFails adds cfg to eng and fails the test unless Add refuses it with an
// error containing want.
func addFails(t *testing.T, eng *fleet.Engine, cfg fleet.MachineConfig, want string) {
	t.Helper()
	err := eng.Add(cfg)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Add(%s) = %v; want an error mentioning %q", cfg.Name, err, want)
	}
}

func nop(*fleet.Machine) error { return nil }

// TestAddRejectsSharedClock: a machine's clock belongs to it alone.
// A second machine advancing it would move the first one's effective wake
// without the engine re-keying it.
func TestAddRejectsSharedClock(t *testing.T) {
	eng := fleet.New()
	clk := sim.NewClock()
	mustAdd(t, eng, fleet.MachineConfig{Name: "a", Clock: clk, Program: nop})
	addFails(t, eng, fleet.MachineConfig{Name: "b", Clock: clk, Program: nop}, "shares its Clock with machine a")
	addFails(t, eng, fleet.MachineConfig{Name: "c", Program: nop}, "has no Clock")
}

// TestAddRejectsBoundStation: a station's delivery hook names one machine,
// so a station cannot join a second machine — in this engine or another —
// until the engine holding it has run. A refused machine leaves none of its
// stations bound.
func TestAddRejectsBoundStation(t *testing.T) {
	net := ether.New(nil)
	sa, _ := net.Attach(1)
	sb, _ := net.Attach(2)
	eng := fleet.New(fleet.Medium(net))
	mustAdd(t, eng, fleet.MachineConfig{Name: "a", Clock: sim.NewClock(), Station: sa, Program: nop})
	addFails(t, eng, fleet.MachineConfig{Name: "b", Clock: sim.NewClock(), Stations: []*ether.Station{sb, sa}, Program: nop}, "station 1 is already bound")
	addFails(t, fleet.New(fleet.Medium(net)), fleet.MachineConfig{Name: "c", Clock: sim.NewClock(), Station: sa, Program: nop}, "station 1 is already bound")
	mustAdd(t, eng, fleet.MachineConfig{Name: "b2", Clock: sim.NewClock(), Station: sb, Program: nop})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Run released the engine's stations: a later phase may bind them.
	next := fleet.New(fleet.Medium(net))
	mustAdd(t, next, fleet.MachineConfig{Name: "a2", Clock: sim.NewClock(), Station: sa, Program: nop})
	if err := next.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAddRejectsSharedRecorder: a flight recorder has one writer and no
// lock, so the engine refuses a machine whose station records into a
// recorder another machine's station already carries — two machines in one
// window would write it from two goroutines. One machine's stations may
// share a recorder, as a cluster replica's serving and auditing stations
// do.
func TestAddRejectsSharedRecorder(t *testing.T) {
	net := ether.New(nil)
	sa, _ := net.Attach(1)
	sa2, _ := net.Attach(2)
	sb, _ := net.Attach(3)
	sc, _ := net.Attach(4)
	rec := trace.New(16)
	for _, st := range []*ether.Station{sa, sa2, sb} {
		st.SetRecorder(rec)
	}
	sc.SetRecorder(trace.New(16))
	eng := fleet.New(fleet.Medium(net))
	mustAdd(t, eng, fleet.MachineConfig{Name: "replica", Clock: sim.NewClock(), Stations: []*ether.Station{sa, sa2}, Program: nop})
	addFails(t, eng, fleet.MachineConfig{Name: "intruder", Clock: sim.NewClock(), Station: sb, Program: nop}, "station 3 records into machine replica's recorder")
	// The refused machine was not registered: its station may join another
	// machine once it records elsewhere, and untraced stations never
	// conflict.
	sb.SetRecorder(nil)
	mustAdd(t, eng, fleet.MachineConfig{Name: "untraced", Clock: sim.NewClock(), Stations: []*ether.Station{sb}, Program: nop})
	mustAdd(t, eng, fleet.MachineConfig{Name: "traced", Clock: sim.NewClock(), Station: sc, Program: nop})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
