// altotrace runs one experiment from internal/experiments with the flight
// recorder attached and exports what it saw: a Chrome trace_event JSON file
// (load it at chrome://tracing or https://ui.perfetto.dev) and a metrics
// snapshot. Every timestamp in the output is simulated time — the virtual
// clock the disk and network models advance — so two runs of the same
// experiment produce byte-identical traces.
//
// Usage:
//
//	altotrace -experiment e3 -out trace.json
//	altotrace -experiment e4 -out trace.json -metrics metrics.json
//	altotrace -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		experiment = flag.String("experiment", "", "experiment id to run (see -list)")
		out        = flag.String("out", "trace.json", "Chrome trace_event output file")
		metrics    = flag.String("metrics", "", "also write the metrics snapshot as JSON to this file")
		events     = flag.Int("events", trace.DefaultEvents, "flight-recorder ring capacity in events")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *experiment == "" {
		log.Fatalf("altotrace: -experiment is required (one of %s)", strings.Join(experiments.IDs(), ", "))
	}

	// Every machine records into the one recorder, so the run keeps to one
	// worker: that is what keeps a shared recorder's event order
	// deterministic.
	rec := trace.New(*events)
	res, err := experiments.Run(*experiment, 1, func(string) *trace.Recorder { return rec })
	if err != nil {
		log.Fatalf("altotrace: %v", err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("altotrace: %v", err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		log.Fatalf("altotrace: write %s: %v", *out, err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("altotrace: close %s: %v", *out, err)
	}

	if *metrics != "" {
		m, err := os.Create(*metrics)
		if err != nil {
			log.Fatalf("altotrace: %v", err)
		}
		if err := rec.Snapshot().WriteJSON(m); err != nil {
			log.Fatalf("altotrace: write %s: %v", *metrics, err)
		}
		if err := m.Close(); err != nil {
			log.Fatalf("altotrace: close %s: %v", *metrics, err)
		}
	}

	fmt.Println(res.Table())
	fmt.Printf("wrote %d events to %s (%d dropped by the ring)\n", rec.Len(), *out, rec.Snapshot().Dropped)
	fmt.Println()
	fmt.Print(rec.Snapshot().Text())
}
