package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"altoos/internal/ether"
)

// Test-only access to the windowed engine's internals. No Option reaches
// any of it.

// ScheduleOracle checks a windowed engine's event queue against the
// scheduler it replaced: at every barrier it recomputes every live machine's
// effective wake from scratch, sorts the machines by (wake, creation index),
// cuts the list at the window horizon, and compares that batch with the one
// the heap produced.
type ScheduleOracle struct {
	// Windows counts the barriers checked; Batched the machines the
	// checked batches held.
	Windows, Batched int
	// Mismatches describes every barrier whose batch differed.
	Mismatches []string
}

// WatchSchedule attaches a ScheduleOracle to e. Call it before Run.
func WatchSchedule(e *Engine) *ScheduleOracle {
	o := &ScheduleOracle{}
	e.checkBatch = func(batch []*Machine) {
		o.Windows++
		o.Batched += len(batch)
		got := make([]wakeEntry, len(batch))
		for i, m := range batch {
			got[i] = wakeEntry{m, m.effWake}
		}
		want := rescan(e)
		if !equalEntries(got, want) {
			o.Mismatches = append(o.Mismatches, fmt.Sprintf("window %d: heap batch [%s], rescan batch [%s]",
				o.Windows, formatEntries(got), formatEntries(want)))
		}
	}
	return o
}

// wakeEntry is one machine of a batch, with the wake it was batched at.
type wakeEntry struct {
	m    *Machine
	wake time.Duration
}

// rescan is the full-rescan scheduler: every live machine's yielded wake,
// capped by its stations' earliest arrivals (not before its clock), sorted
// by (wake, creation index) and cut at the first wake past the horizon.
func rescan(e *Engine) []wakeEntry {
	var all []wakeEntry
	for _, m := range e.machines {
		if m.done {
			continue
		}
		w := m.wake
		for _, st := range m.sts {
			if a, ok := st.EarliestArrival(); ok {
				a = max(a, m.clock.Now())
				w = min(w, a)
			}
		}
		if w < never {
			all = append(all, wakeEntry{m, w})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].wake != all[j].wake {
			return all[i].wake < all[j].wake
		}
		return all[i].m.idx < all[j].m.idx
	})
	for i, en := range all {
		if en.wake >= all[0].wake+ether.MinLatency {
			return all[:i]
		}
	}
	return all
}

func equalEntries(a, b []wakeEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func formatEntries(es []wakeEntry) string {
	parts := make([]string, len(es))
	for i, en := range es {
		parts[i] = fmt.Sprintf("%s@%v", en.m.name, en.wake)
	}
	return strings.Join(parts, " ")
}

// errStopped unwinds a fleet that a test stepped by hand.
var errStopped = errors.New("fleet: stopped by test")

// DriveWindows runs e with drive in place of its window loop: drive opens
// windows one at a time through step, and when it returns, every machine
// still running is unwound.
func DriveWindows(e *Engine, drive func(step func(round int) (bool, error))) {
	_ = e.run(func() error {
		e.fillQueue()
		drive(e.window)
		return errStopped
	})
}
