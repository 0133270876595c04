// Command altovet runs the repo's domain-aware static analyzers: the
// invariants the paper's reliability story depends on (label-checked disk
// access, replayable simulated time, 16-bit word discipline, storage error
// etiquette, lock ordering) and the whole-program concurrency/determinism
// contract the fleet era is gated on (joined goroutines, deterministic
// channel use, frozen globals, clock-domain taint, trace coverage), enforced
// as a build gate.
//
// Usage:
//
//	altovet [-run name[,name...]] [-list] [-json] [-workers n] [-stats] [packages]
//
// Packages default to ./... (the whole module). Exit status is 0 when the
// tree is clean, 1 when any finding is reported, and 2 on usage or load
// errors. -json emits the findings as a stable-ordered JSON array. -stats
// prints an informational per-analyzer table of finding and allow counts.
// Findings can be suppressed, with a mandatory reason, by
//
//	//altovet:allow <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line above; a directive that suppresses nothing
// is itself reported as stale. See DESIGN.md, "Correctness tooling".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"altoos/internal/vet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its dependencies injected, so tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("altovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (stable order)")
	stats := fs.Bool("stats", false, "print per-analyzer finding/allow counts (informational)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "package load/analysis worker pool size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := vet.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*vet.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "altovet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "altovet: %v\n", err)
		return 2
	}
	mod, err := vet.LoadModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "altovet: %v\n", err)
		return 2
	}
	pkgs, err := mod.LoadParallel(*workers, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "altovet: %v\n", err)
		return 2
	}
	diags, runStats := vet.RunAll(pkgs, analyzers)
	current := mod.JSONDiagnostics(diags)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if current == nil {
			current = []vet.JSONDiagnostic{}
		}
		if err := enc.Encode(current); err != nil {
			fmt.Fprintf(stderr, "altovet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range current {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if *stats {
		printStats(stdout, runStats)
	}
	if len(current) > 0 {
		fmt.Fprintf(stderr, "altovet: %d finding(s)\n", len(current))
		return 1
	}
	return 0
}

// printStats renders the informational per-analyzer table `make vet-stats`
// shows: surviving findings and suppressions in use.
func printStats(w io.Writer, s *vet.Stats) {
	names := map[string]bool{}
	for _, a := range vet.Analyzers() {
		names[a.Name] = true
	}
	for n := range s.Findings {
		names[n] = true
	}
	for n := range s.Allowed {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	fmt.Fprintf(w, "%-12s %9s %9s\n", "analyzer", "findings", "allowed")
	totF, totA := 0, 0
	for _, n := range ordered {
		fmt.Fprintf(w, "%-12s %9d %9d\n", n, s.Findings[n], s.Allowed[n])
		totF += s.Findings[n]
		totA += s.Allowed[n]
	}
	fmt.Fprintf(w, "%-12s %9d %9d\n", "total", totF, totA)
}
