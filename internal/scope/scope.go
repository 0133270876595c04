// Package scope is the fleet observability layer: it takes the per-machine
// flight recorders of a run (each machine one internal/trace Recorder,
// timed off that machine's sim.Clock; fleet machines each run on their own)
// and produces the three artifacts that make a cross-machine run debuggable:
//
//   - one merged Chrome trace_event document, one process per machine, with
//     the causal flows stitched across machines as ph:s/t/f arrow events —
//     a client's request, its wire deliveries (retransmits included), the
//     fault verdicts the medium handed them, and the server session they
//     opened render as one chain;
//   - a hierarchical sim-time profile per machine (self/cumulative time
//     keyed on category/name nesting), exported as a collapsed-stack
//     flamegraph file and a top-N text table, aggregable across the fleet;
//   - per-machine metrics snapshots (the recorders' own Snapshot).
//
// Determinism contract: everything here is a pure function of the recorded
// events. Machines are ordered by name, events by (simulated time, machine,
// ring position) — a total order independent of merge-input order — so the
// merged trace and the profile are byte-identical across runs, across merge
// input orders, and across worker counts (cmd/altobench's
// TestE10MergedArtifactsAreByteIdentical pins this).
package scope

import (
	"sync"

	"altoos/internal/trace"
)

// MachineTrace names one machine's recorder for merging.
type MachineTrace struct {
	Name string
	Rec  *trace.Recorder
}

// Fleet hands out per-machine recorders by name. Each machine created gets a
// distinct flow domain (in creation order), so flow IDs allocated on
// different machines never collide when their traces merge.
type Fleet struct {
	mu       sync.Mutex
	capacity int
	order    []string
	byName   map[string]*trace.Recorder
}

// NewFleet builds a fleet whose recorders hold up to capacity events each
// (trace.DefaultEvents if not positive).
func NewFleet(capacity int) *Fleet {
	return &Fleet{capacity: capacity, byName: map[string]*trace.Recorder{}}
}

// Machine returns the named machine's recorder, creating it on first use.
// The method value is the machine function experiments.Run takes.
func (f *Fleet) Machine(name string) *trace.Recorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.byName[name]; ok {
		return r
	}
	r := trace.New(f.capacity)
	r.SetFlowDomain(len(f.order))
	f.byName[name] = r
	f.order = append(f.order, name)
	return r
}

// Machines returns the fleet's recorders in creation order.
func (f *Fleet) Machines() []MachineTrace {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]MachineTrace, len(f.order))
	for i, name := range f.order {
		out[i] = MachineTrace{Name: name, Rec: f.byName[name]}
	}
	return out
}
