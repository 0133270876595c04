package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at smoke scale at workers 1 and 2,
// untraced and traced: no op may fail, and all four simulation digests must
// agree.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var first string
			for _, workers := range []int{1, 2} {
				for _, traced := range []bool{false, true} {
					p := runPass(w, 1, workers, true, traced)
					if p.err != nil {
						t.Fatalf("workers=%d traced=%v: %v", workers, traced, p.err)
					}
					if p.ops == 0 || p.failed != 0 {
						t.Fatalf("workers=%d traced=%v: %d of %d ops failed", workers, traced, p.failed, p.ops)
					}
					if first == "" {
						first = p.digest
					} else if p.digest != first {
						t.Errorf("workers=%d traced=%v: digest %s, want %s", workers, traced, p.digest, first)
					}
					if traced {
						for _, d := range perLayer() {
							if _, ok := p.layer[d.name]; !ok && !isRunLevel(d.name) {
								t.Errorf("traced pass did not emit %s", d.name)
							}
						}
					}
				}
			}
		})
	}
}

// isRunLevel reports metrics a run computes once rather than per pass.
func isRunLevel(name string) bool {
	return name == "perf.trace_overhead_frac" || strings.HasPrefix(name, "probe.")
}

// TestBenchmarkFile checks BENCHMARK.json against the metrics the program
// emits: well-formed names, units and reasons, the declared limits, setup_s
// holding the largest bound, and exactly the declared metrics with the
// declared units.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "" && better != "higher" && better != "lower" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	var wl []string
	for _, w := range b.Workloads {
		check(w.Name, "", "")
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of 1 to 200 characters", w.Name)
		}
		wl = append(wl, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(wl), len(workloads))
	}
	declared := map[string]string{}
	bound := map[string]float64{}
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		declared[m.Name], bound[m.Name] = m.Unit, m.Bound
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for n, b := range bound {
		if b > bound["setup_s"] {
			t.Errorf("%s's bound %v exceeds setup_s's %v", n, b, bound["setup_s"])
		}
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		declared[m.Name] = m.Unit
	}
	emitted := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		emitted[d.name] = d.unit
	}
	var diffs []string
	for n, u := range emitted {
		if declared[n] != u {
			diffs = append(diffs, n+" emitted as "+u+", declared as "+declared[n])
		}
	}
	for n := range declared {
		if _, ok := emitted[n]; !ok {
			diffs = append(diffs, n+" declared but never emitted")
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		t.Error(d)
	}
}
