package fleet_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"altoos/internal/ether"
	"altoos/internal/fleet"
	"altoos/internal/sim"
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
		eng.Add(cfg)
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

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want one mentioning %q", r, want)
		}
	}()
	f()
}

func nop(*fleet.Machine) error { return nil }

// TestAddRejectsSharedClock: a windowed machine's clock belongs to it alone.
// A second machine advancing it would move the first one's effective wake
// without the engine re-keying it.
func TestAddRejectsSharedClock(t *testing.T) {
	eng := fleet.New()
	clk := sim.NewClock()
	eng.Add(fleet.MachineConfig{Name: "a", Clock: clk, Program: nop})
	mustPanic(t, "shares its Clock with machine a", func() {
		eng.Add(fleet.MachineConfig{Name: "b", Clock: clk, Program: nop})
	})
}

// TestAddRejectsBoundStation: a station's delivery hook names one machine,
// so a station cannot join a second machine — in this engine or another —
// until the engine holding it has run.
func TestAddRejectsBoundStation(t *testing.T) {
	net := ether.New(nil)
	sa, _ := net.Attach(1)
	sb, _ := net.Attach(2)
	eng := fleet.New(fleet.Medium(net))
	eng.Add(fleet.MachineConfig{Name: "a", Clock: sim.NewClock(), Station: sa, Program: nop})
	mustPanic(t, "station 1 is already bound", func() {
		eng.Add(fleet.MachineConfig{Name: "b", Clock: sim.NewClock(), Stations: []*ether.Station{sb, sa}, Program: nop})
	})
	mustPanic(t, "station 1 is already bound", func() {
		fleet.New(fleet.Medium(net)).Add(fleet.MachineConfig{Name: "c", Clock: sim.NewClock(), Station: sa, Program: nop})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Run released the engine's stations: a later phase may bind them.
	next := fleet.New(fleet.Medium(net))
	next.Add(fleet.MachineConfig{Name: "a2", Clock: sim.NewClock(), Station: sa, Program: nop})
	if err := next.Run(); err != nil {
		t.Fatal(err)
	}
}
