package fleet_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"altoos/internal/fleet"
	"altoos/internal/sim"
)

// unwindFleet is a three-machine fleet whose Run, at the given pool width,
// ends the given way:
//
//   - "normal": every machine returns after three yields;
//   - "error": machine a returns an error after two yields, b and c spin;
//   - "cap": every machine spins until the five-round cap.
//
// Each program counts itself started and, in a deferred call, unwound. The
// machines never advance their clocks, so every window holds all of them
// and a width of two or more runs them on the pool's helpers too.
type unwindFleet struct {
	eng              *fleet.Engine
	started, unwound atomic.Int32
	boom             error
}

func newUnwindFleet(t *testing.T, end string, workers int) *unwindFleet {
	f := &unwindFleet{boom: errors.New("boom")}
	opts := []fleet.Option{fleet.Workers(workers)}
	if end == "cap" {
		opts = append(opts, fleet.MaxRounds(5))
	}
	f.eng = fleet.New(opts...)
	for _, name := range []string{"a", "b", "c"} {
		cfg := fleet.MachineConfig{Name: name, Clock: sim.NewClock()}
		cfg.Program = func(m *fleet.Machine) error {
			f.started.Add(1)
			defer f.unwound.Add(1)
			for n := 0; ; n++ {
				switch {
				case end == "normal" && n == 3:
					return nil
				case end == "error" && name == "a" && n == 2:
					return f.boom
				}
				m.Yield()
			}
		}
		if err := f.eng.Add(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// settledGoroutines counts goroutines once the count holds still: a
// coroutine that has finished hands control back before its goroutine has
// exited, so a count taken at once may include one still on its way out
// (an earlier subtest's, under the race detector's slower exits). A
// goroutine parked for good never leaves, so a leak still shows.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestRunUnwindsMachines: however Run returns — normally, after a machine's
// error, or at the round cap — every machine that started has run its
// deferred calls, and no goroutine outlives Run: neither a machine's nor,
// at two workers, one of the pool's helpers.
func TestRunUnwindsMachines(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, end := range []string{"normal", "error", "cap"} {
			name := end
			if workers > 1 {
				name = fmt.Sprintf("%s,workers=%d", end, workers)
			}
			t.Run(name, func(t *testing.T) {
				f := newUnwindFleet(t, end, workers)
				before := settledGoroutines()
				err := f.eng.Run()
				after := settledGoroutines()
				switch end {
				case "normal":
					if err != nil {
						t.Fatalf("err = %v, want nil", err)
					}
				case "error":
					if !errors.Is(err, f.boom) {
						t.Fatalf("err = %v, want boom", err)
					}
				case "cap":
					if !errors.Is(err, fleet.ErrRoundCap) {
						t.Fatalf("err = %v, want ErrRoundCap", err)
					}
				}
				if started, unwound := f.started.Load(), f.unwound.Load(); started != 3 || unwound != started {
					t.Errorf("%d machines started, %d unwound; want 3 and 3", started, unwound)
				}
				if after != before {
					t.Errorf("%d goroutines before Run, %d after", before, after)
				}
			})
		}
	}
}

// TestProgramPanicReachesRun: at every pool width, a program's own panic
// reaches Run's caller with its value intact, and the machines still parked
// are unwound on the way out. At two workers or more the panic happens on
// whichever goroutine claimed the machine; the engine holds it until the
// window's barrier and raises it again on Run's goroutine.
func TestProgramPanicReachesRun(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			type bug struct{ msg string }
			f := newUnwindFleet(t, "cap", workers)
			if err := f.eng.Add(fleet.MachineConfig{Name: "panicker", Clock: sim.NewClock(), Program: func(m *fleet.Machine) error {
				m.Yield()
				panic(bug{"program bug"})
			}}); err != nil {
				t.Fatal(err)
			}
			before := settledGoroutines()
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = f.eng.Run()
				return nil
			}()
			if want := (bug{"program bug"}); got != want {
				t.Fatalf("Run panicked with %#v, want %#v", got, want)
			}
			if started, unwound := f.started.Load(), f.unwound.Load(); started != 3 || unwound != 3 {
				t.Errorf("%d bystanders started, %d unwound; want 3 and 3", started, unwound)
			}
			if after := settledGoroutines(); after != before {
				t.Errorf("%d goroutines before Run, %d after", before, after)
			}
		})
	}
}
