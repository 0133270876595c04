// altoscope runs one experiment as a fleet — every simulated machine
// recording into its own flight recorder — and merges what they saw into
// the cross-machine observability artifacts:
//
//   - <id>.trace.json: one Chrome trace_event document, one process per
//     machine on the shared simulated-time axis, causal flows drawn as
//     arrows across machines (load it at chrome://tracing or
//     https://ui.perfetto.dev);
//   - <id>.collapsed: the sim-time profile in collapsed-stack flamegraph
//     format, one leading frame per machine;
//   - <id>.profile.txt: the fleet-aggregated top table by self time;
//   - <id>.metrics.txt: each machine's counters and histograms.
//
// Every artifact is a deterministic function of the workload: byte-identical
// across runs, merge input orders and -workers counts. The experiments
// package's TestDeterminism pins the per-machine recordings for every
// experiment (make determinism-check); this package's tests pin the merge.
//
// Usage:
//
//	altoscope -experiment e10 -out .
//	altoscope -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		experiment = flag.String("experiment", "e10", "experiment id to run (see -list)")
		out        = flag.String("out", ".", "directory for the merged artifacts")
		workers    = flag.Int("workers", 8, "worker-pool width for the fleet schedule and the per-machine merge")
		top        = flag.Int("top", 20, "rows in the top-by-self-time table")
		events     = flag.Int("events", trace.DefaultEvents, "per-machine ring capacity in events")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	res, fleet, err := runFleet(*experiment, *workers, *events)
	if err != nil {
		log.Fatalf("altoscope: %v", err)
	}
	machines := fleet.Machines()
	merged := scope.Merge(machines, *workers)

	traceBytes, collapsed, topTable, err := render(merged, *top)
	if err != nil {
		log.Fatalf("altoscope: %v", err)
	}
	outputs := []struct {
		name string
		data []byte
	}{
		{*experiment + ".trace.json", traceBytes},
		{*experiment + ".collapsed", collapsed},
		{*experiment + ".profile.txt", topTable},
		{*experiment + ".metrics.txt", metricsText(machines)},
	}
	for _, o := range outputs {
		path := filepath.Join(*out, o.name)
		if err := os.WriteFile(path, o.data, 0o644); err != nil {
			log.Fatalf("altoscope: %v", err)
		}
	}

	fmt.Println(res.Table())
	fmt.Printf("fleet: %d machines", len(machines))
	for _, m := range machines {
		fmt.Printf(" %s(%d)", m.Name, m.Rec.Len())
	}
	fmt.Println()
	for _, p := range merged.MachineProfiles() {
		fmt.Printf("profile %-10s %4d spans, %10.3f ms accounted of %10.3f ms covered\n",
			p.Machine, p.Spans, float64(p.Total)/1e6, float64(p.Covered)/1e6)
	}
	fmt.Println()
	os.Stdout.Write(topTable)
	for _, o := range outputs {
		fmt.Printf("wrote %s\n", filepath.Join(*out, o.name))
	}
}

// runFleet executes the experiment with one recorder per machine.
func runFleet(id string, workers, events int) (*experiments.Result, *scope.Fleet, error) {
	fleet := scope.NewFleet(events)
	res, err := experiments.Run(id, workers, fleet.Machine)
	if err != nil {
		return nil, nil, err
	}
	return res, fleet, nil
}

// render produces the three merged artifacts as byte slices.
func render(m *scope.Merged, top int) (traceJSON, collapsed, topTable []byte, err error) {
	var tb, cb, pb bytes.Buffer
	if err := m.WriteChrome(&tb); err != nil {
		return nil, nil, nil, err
	}
	if err := scope.WriteCollapsed(&cb, m.MachineProfiles()); err != nil {
		return nil, nil, nil, err
	}
	if err := scope.WriteTop(&pb, m.MachineProfiles(), top); err != nil {
		return nil, nil, nil, err
	}
	return tb.Bytes(), cb.Bytes(), pb.Bytes(), nil
}

// metricsText renders every machine's metrics snapshot, machines in fleet
// creation order.
func metricsText(machines []scope.MachineTrace) []byte {
	var b bytes.Buffer
	for _, m := range machines {
		fmt.Fprintf(&b, "== %s ==\n", m.Name)
		b.WriteString(m.Rec.Snapshot().Text())
	}
	return b.Bytes()
}
