// altobench regenerates every quantitative claim in the paper — the
// reproduction's tables. Each experiment builds its own workload on a fresh
// simulated machine and prints the paper's sentence next to the measured
// shape. See EXPERIMENTS.md for the claim-by-claim comparison.
//
// Usage:
//
//	altobench [-cpuprofile file] [-memprofile file] [ids...]
//
//	altobench           run all experiments
//	altobench E3 E6     run a subset by id
//
// The profile flags capture host-side pprof profiles of the experiment run:
// the simulated quantities never depend on the host, but the wall-clock cost
// of producing them does, and the profiles are how the storage hot path is
// kept allocation-free (see DESIGN.md, "Chained transfers").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"altoos/internal/experiments"
)

func main() {
	log.SetFlags(0)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to `file`")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	want := flag.Args()
	if len(want) == 0 {
		want = experiments.IDs()
	}
	fmt.Println("Reproducing the quantitative claims of Lampson & Sproull,")
	fmt.Println("\"An Open Operating System for a Single-User Machine\" (SOSP 1979).")
	fmt.Println("All times are simulated (virtual disk/CPU clock).")
	fmt.Println()
	for _, id := range want {
		res, err := experiments.Run(id, 1, nil)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println(res.Table())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC() // flush accounting so the profile shows live + total allocation
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}
