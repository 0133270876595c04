// altobench runs the experiments that regenerate every quantitative claim in
// the paper and prints each one's table: the paper's sentence next to the
// measured shape (EXPERIMENTS.md compares them claim by claim). -json prints
// result documents instead; -scope records one flight recorder per machine
// and writes the merged Chrome trace, collapsed stacks, top table and
// metrics as <id>.* files; -machines and -clients resize E14 and E15;
// -seeds is the make cluster-seeds gate. Every timestamp is
// simulated, so each output is byte-identical across runs and -workers
// widths. Run altobench -h for the flags; README.md has examples.
//
//	altobench [flags] [ids...]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

// top is the number of rows in -scope's top-by-self-time table.
const top = 20

const banner = `Reproducing the quantitative claims of Lampson & Sproull,
"An Open Operating System for a Single-User Machine" (SOSP 1979).
All times are simulated (virtual disk/CPU clock).

`

// config is one invocation: the flags, which of them were set, and the ids.
type config struct {
	ids                    []string
	banner                 bool
	set                    map[string]bool
	workers, events        int
	machines, clients      int
	json, list             bool
	scope, seeds           string
	cpuprofile, memprofile string
}

func main() {
	log.SetFlags(0)
	c, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "altobench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if err := c.exec(os.Stdout); err != nil {
		log.Fatalf("altobench: %v", err)
	}
	if c.memprofile != "" {
		runtime.GC() // flush accounting so the profile shows live + total allocation
		if err := writeFile(c.memprofile, pprof.WriteHeapProfile); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}

// parse defines the flags on fs, parses args, and rejects any flag that the
// other arguments would leave without effect.
func parse(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{set: map[string]bool{}}
	fs.IntVar(&c.workers, "workers", 1, "worker-pool `width` for the fleet schedule and the -scope merge")
	fs.BoolVar(&c.json, "json", false, "print each result as a JSON document instead of its table")
	fs.StringVar(&c.scope, "scope", "", "record one recorder per machine; write the merged <id>.* artifacts to `dir`")
	fs.IntVar(&c.events, "events", trace.DefaultEvents, "ring capacity in events of each -scope recorder")
	fs.IntVar(&c.machines, "machines", 100, "client Altos in E14's fleet")
	fs.IntVar(&c.clients, "clients", 24, "client machines in E15's cluster")
	fs.StringVar(&c.seeds, "seeds", "", "run E15 on every wire seed in `lo-hi` at workers 1 and 2")
	fs.BoolVar(&c.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&c.memprofile, "memprofile", "", "write an allocation profile of the run to `file`")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	if c.list {
		return c, nil
	}
	c.ids = fs.Args()
	for _, id := range c.ids {
		if !slices.ContainsFunc(experiments.IDs(), func(have string) bool { return strings.EqualFold(have, id) }) {
			return nil, fmt.Errorf("%q is not an experiment id (have %s)", id, strings.Join(experiments.IDs(), ", "))
		}
	}
	modes := 0
	for _, f := range []string{"json", "scope", "seeds"} {
		if c.set[f] {
			modes++
		}
	}
	switch {
	case len(c.ids) > 0:
	case c.set["seeds"]:
		c.ids = []string{"e15"}
	default:
		c.banner = modes == 0
		c.ids = experiments.IDs()
	}
	other := func(want string) bool {
		return slices.ContainsFunc(c.ids, func(id string) bool { return !strings.EqualFold(id, want) })
	}
	for _, r := range []struct {
		bad bool
		msg string
	}{
		{c.set["machines"] && other("e14"), "-machines applies to e14 only"},
		{c.set["clients"] && other("e15"), "-clients applies to e15 only"},
		{c.set["seeds"] && other("e15"), "-seeds applies to e15 only"},
		{modes > 1, "at most one of -json, -scope and -seeds"},
		{c.workers < 1, "-workers must be at least 1"},
		{c.set["events"] && !c.set["scope"], "-events needs -scope"},
		{c.set["seeds"] && c.set["workers"], "-seeds runs at workers 1 and 2; drop -workers"},
	} {
		if r.bad {
			return nil, errors.New(r.msg)
		}
	}
	return c, nil
}

// exec runs the invocation, printing to w.
func (c *config) exec(w io.Writer) error {
	switch {
	case c.list:
		fmt.Fprintln(w, strings.Join(experiments.IDs(), "\n"))
		return nil
	case c.set["seeds"]:
		lo, hi, err := parseRange(c.seeds)
		if err != nil {
			return fmt.Errorf("-seeds: %v", err)
		}
		if err := sweep(c.clients, lo, hi); err != nil {
			return err
		}
		fmt.Fprintf(w, "cluster-seeds ok: wire seeds %d-%d, %d clients, workers 1 and 2 agree, 0 files lost, 0 bytes corrupted\n", lo, hi, c.clients)
		return nil
	case c.banner:
		fmt.Fprint(w, banner)
	}
	each := c.report
	if c.set["scope"] {
		each = c.writeScope
	}
	for _, id := range c.ids {
		if err := each(w, id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// run executes one experiment at the configured width, E14 at -machines and
// E15 at -clients when those are set (parse has checked the id).
func (c *config) run(id string, machine func(string) *trace.Recorder) (*experiments.Result, error) {
	switch {
	case c.set["machines"]:
		return experiments.E14FanIn(c.machines, c.workers, machine)
	case c.set["clients"]:
		return experiments.E15Cluster(c.clients, c.workers, experiments.E15WireSeed, machine)
	}
	return experiments.Run(id, c.workers, machine)
}

// report prints the experiment's table, or under -json its result document:
// identification, the rows, and the metrics (keys sorted by encoding/json).
func (c *config) report(w io.Writer, id string) error {
	res, err := c.run(id, nil)
	if err != nil {
		return err
	}
	if !c.json {
		fmt.Fprintln(w, res.Table())
		return nil
	}
	doc := struct {
		ID      string              `json:"id"`
		Title   string              `json:"title"`
		Claim   string              `json:"claim"`
		Rows    []map[string]string `json:"rows"` // {"name", "value"}, in that key order
		Metrics map[string]float64  `json:"metrics"`
	}{ID: res.ID, Title: res.Title, Claim: res.Claim, Metrics: res.Metrics}
	for _, r := range res.Rows {
		doc.Rows = append(doc.Rows, map[string]string{"name": r.Label, "value": r.Value})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// writeScope runs the experiment with one recorder per machine and writes
// the four merged artifacts into the -scope directory.
func (c *config) writeScope(w io.Writer, id string) error {
	fleet := scope.NewFleet(c.events)
	res, err := c.run(id, fleet.Machine)
	if err != nil {
		return err
	}
	machines := fleet.Machines()
	merged := scope.Merge(machines, c.workers)
	traceJSON, collapsed, topTable, err := render(merged)
	if err != nil {
		return err
	}
	var metrics bytes.Buffer
	fmt.Fprintf(w, "%s\nfleet: %d machines", res.Table(), len(machines))
	for _, m := range machines {
		fmt.Fprintf(w, " %s(%d)", m.Name, m.Rec.Len())
		fmt.Fprintf(&metrics, "== %s ==\n%s", m.Name, m.Rec.Snapshot().Text())
	}
	fmt.Fprintln(w)
	for _, p := range merged.MachineProfiles() {
		fmt.Fprintf(w, "profile %-10s %4d spans, %10.3f ms accounted of %10.3f ms covered\n",
			p.Machine, p.Spans, float64(p.Total)/1e6, float64(p.Covered)/1e6)
	}
	fmt.Fprintf(w, "\n%s", topTable)
	suffixes := []string{".trace.json", ".collapsed", ".profile.txt", ".metrics.txt"}
	for i, data := range [][]byte{traceJSON, collapsed, topTable, metrics.Bytes()} {
		path := filepath.Join(c.scope, id+suffixes[i])
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// render produces the merged trace, collapsed stacks and top table.
func render(m *scope.Merged) (traceJSON, collapsed, topTable []byte, err error) {
	var b [3]bytes.Buffer
	p := m.MachineProfiles()
	if err := errors.Join(m.WriteChrome(&b[0]), scope.WriteCollapsed(&b[1], p), scope.WriteTop(&b[2], p, top)); err != nil {
		return nil, nil, nil, err
	}
	return b[0].Bytes(), b[1].Bytes(), b[2].Bytes(), nil
}

// writeFile writes to path what write produces.
func writeFile(path string, write func(io.Writer) error) error {
	var b bytes.Buffer
	if err := write(&b); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
