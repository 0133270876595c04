package fleet_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"altoos/internal/fleet"
	"altoos/internal/sim"
)

// unwindFleet is a three-machine fleet in the given mode (coupled or
// windowed, one worker) whose Run ends the given way:
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

func newUnwindFleet(coupled bool, end string) *unwindFleet {
	f := &unwindFleet{boom: errors.New("boom")}
	var opts []fleet.Option
	if end == "cap" {
		opts = append(opts, fleet.MaxRounds(5))
	}
	if coupled {
		f.eng = fleet.NewCoupled(opts...)
	} else {
		f.eng = fleet.New(opts...)
	}
	for _, name := range []string{"a", "b", "c"} {
		cfg := fleet.MachineConfig{Name: name, Clock: clockFor(coupled)}
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
		f.eng.Add(cfg)
	}
	return f
}

// TestRunUnwindsMachines: however Run returns — normally, after a machine's
// error, or at the round cap — every machine that started has run its
// deferred calls, and no machine's goroutine outlives Run.
func TestRunUnwindsMachines(t *testing.T) {
	for _, mode := range []string{"windowed", "coupled"} {
		for _, end := range []string{"normal", "error", "cap"} {
			t.Run(mode+"/"+end, func(t *testing.T) {
				f := newUnwindFleet(mode == "coupled", end)
				before := runtime.NumGoroutine()
				err := f.eng.Run()
				after := runtime.NumGoroutine()
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
}

// TestProgramPanicReachesRun: with one worker, a program's own panic reaches
// Run's caller with its value intact, and the machines still parked are
// unwound on the way out.
func TestProgramPanicReachesRun(t *testing.T) {
	type bug struct{ msg string }
	for _, coupled := range []bool{false, true} {
		t.Run(fmt.Sprintf("coupled=%v", coupled), func(t *testing.T) {
			f := newUnwindFleet(coupled, "cap")
			f.eng.Add(fleet.MachineConfig{Name: "panicker", Clock: clockFor(coupled), Program: func(m *fleet.Machine) error {
				m.Yield()
				panic(bug{"program bug"})
			}})
			before := runtime.NumGoroutine()
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
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d goroutines before Run, %d after", before, after)
			}
		})
	}
}

// clockFor returns a machine's own clock in windowed mode, nil in coupled.
func clockFor(coupled bool) *sim.Clock {
	if coupled {
		return nil
	}
	return sim.NewClock()
}
