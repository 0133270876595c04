// altofleet drives the deterministic fleet scheduler (internal/fleet) from
// the command line: it boots a fleet of simulated Altos against one file
// server on the windowed parallel schedule and reports what the run did.
//
// The scheduler's contract is that the schedule is a pure function of the
// fleet — byte-identical across repeated runs and across -workers counts.
// -check proves it: the fleet runs twice at one worker, once at two and
// twice at eight, and every per-machine event stream and every metric must
// come out byte-identical, or the process exits nonzero. That is the make
// fleet-check gate.
//
// Usage:
//
//	altofleet -machines 100 -workers 8
//	altofleet -machines 25 -json
//	altofleet -check
//	altofleet -experiment e13      # any experiment, on one recorder per machine
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		machines   = flag.Int("machines", 100, "client Altos in the fleet (e14 only)")
		workers    = flag.Int("workers", 8, "worker-pool width for the windowed schedule")
		experiment = flag.String("experiment", "e14", "experiment id to run (see -list)")
		events     = flag.Int("events", trace.DefaultEvents, "per-machine ring capacity in events")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON instead of the table")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		check      = flag.Bool("check", false, "prove determinism: run at workers 1, 1, 2, 8 and 8, and fail on any byte difference")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *check {
		if err := selfCheck(*machines, *events); err != nil {
			log.Fatalf("altofleet: %v", err)
		}
		fmt.Printf("fleet-check ok: %d-machine schedule byte-identical across runs and worker counts\n", *machines)
		return
	}

	res, fl, err := run(*experiment, *machines, *workers, *events)
	if err != nil {
		log.Fatalf("altofleet: %v", err)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, res); err != nil {
			log.Fatalf("altofleet: %v", err)
		}
		return
	}
	fmt.Println(res.Table())
	ms := fl.Machines()
	fmt.Printf("fleet: %d machines, %d workers\n", len(ms), *workers)
	var total int
	for _, m := range ms {
		total += m.Rec.Len()
	}
	fmt.Printf("traced: %d events across the fleet\n", total)
}

// run executes the experiment with one recorder per machine. The e14 entry
// is parameterized by fleet size and worker count; every other experiment
// runs at its registered scale.
func run(id string, machines, workers, events int) (*experiments.Result, *scope.Fleet, error) {
	fl := scope.NewFleet(events)
	var res *experiments.Result
	var err error
	if strings.EqualFold(id, "e14") {
		res, err = experiments.E14FanIn(machines, workers, fl.Machine)
	} else {
		res, err = experiments.RunScoped(id, fl.Machine)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, fl, nil
}

// snapshot flattens a run — every machine's full event stream plus every
// metric — into one byte slice, the artifact selfCheck compares.
func snapshot(machines, workers, events int) ([]byte, error) {
	res, fl, err := run("e14", machines, workers, events)
	if err != nil {
		return nil, fmt.Errorf("workers=%d: %w", workers, err)
	}
	var b strings.Builder
	ms := fl.Machines()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for _, m := range ms {
		fmt.Fprintf(&b, "== %s events=%d\n", m.Name, m.Rec.Len())
		for _, ev := range m.Rec.Events() {
			fmt.Fprintf(&b, "%d %d %d %s %d %d %d\n", ev.T, ev.Dur, ev.Kind, ev.Name, ev.A0, ev.A1, ev.Flow)
		}
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "metric %s %v\n", k, res.Metrics[k])
	}
	return []byte(b.String()), nil
}

// selfCheck is the fleet-check gate: the same fleet runs twice at one worker,
// once at two and twice at eight, and every event stream and metric must be
// byte-identical across all five runs.
func selfCheck(machines, events int) error {
	var base []byte
	var baseLabel string
	for i, workers := range []int{1, 1, 2, 8, 8} {
		snap, err := snapshot(machines, workers, events)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("run %d (workers=%d)", i+1, workers)
		if base == nil {
			base, baseLabel = snap, label
			continue
		}
		if string(snap) != string(base) {
			return fmt.Errorf("schedule diverged: %s differs from %s (%d vs %d bytes)", label, baseLabel, len(snap), len(base))
		}
	}
	return nil
}

// writeJSON emits the result as one stable JSON document: identification,
// the human-readable rows, and the numeric metrics (keys sorted by
// encoding/json).
func writeJSON(w *os.File, res *experiments.Result) error {
	type row struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	}
	doc := struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Claim   string             `json:"claim"`
		Rows    []row              `json:"rows"`
		Metrics map[string]float64 `json:"metrics"`
	}{ID: res.ID, Title: res.Title, Claim: res.Claim, Metrics: res.Metrics}
	for _, r := range res.Rows {
		doc.Rows = append(doc.Rows, row{Name: r.Label, Value: r.Value})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
