package fleet_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"altoos/internal/fleet"
	"altoos/internal/sim"
)

// unwindFleet is a three-machine fleet (one worker) whose Run ends the
// given way:
//
//   - "normal": every machine returns after three yields;
//   - "error": machine a returns an error after two yields, b and c spin;
//   - "cap": every machine spins until the five-round cap.
//
// Each program counts itself started and, in a deferred call, unwound.
type unwindFleet struct {
	eng              *fleet.Engine
	started, unwound int
	boom             error
}

func newUnwindFleet(t *testing.T, end string) *unwindFleet {
	f := &unwindFleet{boom: errors.New("boom")}
	var opts []fleet.Option
	if end == "cap" {
		opts = append(opts, fleet.MaxRounds(5))
	}
	f.eng = fleet.New(opts...)
	for _, name := range []string{"a", "b", "c"} {
		cfg := fleet.MachineConfig{Name: name, Clock: sim.NewClock()}
		cfg.Program = func(m *fleet.Machine) error {
			f.started++
			defer func() { f.unwound++ }()
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
// deferred calls, and no machine's goroutine outlives Run.
func TestRunUnwindsMachines(t *testing.T) {
	for _, end := range []string{"normal", "error", "cap"} {
		t.Run(end, func(t *testing.T) {
			f := newUnwindFleet(t, end)
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
			if f.started != 3 || f.unwound != f.started {
				t.Errorf("%d machines started, %d unwound; want 3 and 3", f.started, f.unwound)
			}
			if after != before {
				t.Errorf("%d goroutines before Run, %d after", before, after)
			}
		})
	}
}

// TestProgramPanicReachesRun: with one worker, a program's own panic reaches
// Run's caller with its value intact, and the machines still parked are
// unwound on the way out. The case is named for the windowed engine, the
// fleet's only one, as against the coupled round-robin engine it once had
// beside it.
func TestProgramPanicReachesRun(t *testing.T) {
	t.Run("coupled=false", func(t *testing.T) {
		type bug struct{ msg string }
		f := newUnwindFleet(t, "cap")
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
		if f.started != 3 || f.unwound != 3 {
			t.Errorf("%d bystanders started, %d unwound; want 3 and 3", f.started, f.unwound)
		}
		if after := settledGoroutines(); after != before {
			t.Errorf("%d goroutines before Run, %d after", before, after)
		}
	})
}
