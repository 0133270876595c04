// altofleet drives the deterministic fleet scheduler (internal/fleet) from
// the command line: it boots a fleet of simulated Altos against one file
// server on the windowed parallel schedule and reports what the run did.
//
// The scheduler's contract is that the schedule is a pure function of the
// fleet — byte-identical across repeated runs and across -workers counts.
// The experiments package's TestDeterminism proves it for every experiment
// (make determinism-check).
//
// Usage:
//
//	altofleet -machines 100 -workers 8
//	altofleet -machines 25 -json
//	altofleet -experiment e13      # any experiment, on one recorder per machine
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
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
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
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

// run executes the experiment with one recorder per machine at the given
// worker-pool width. The e14 entry is also parameterized by fleet size;
// every other experiment runs at its registered scale.
func run(id string, machines, workers, events int) (*experiments.Result, *scope.Fleet, error) {
	fl := scope.NewFleet(events)
	var res *experiments.Result
	var err error
	if strings.EqualFold(id, "e14") {
		res, err = experiments.E14FanIn(machines, workers, fl.Machine)
	} else {
		res, err = experiments.Run(id, workers, fl.Machine)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, fl, nil
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
