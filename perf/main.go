// Command perf is the altoos benchmark. It drives four workloads straight
// through the layer packages and reports, per workload, host cost (time,
// allocations, memory, set-up) and simulated latency end to end, and — from
// a separate traced run — per-layer counts, host-time percentiles and the
// layer probes. See README.md for the metrics and how to read them.
//
// Usage, from this directory:
//
//	go run . -workload fanin                 end-to-end metrics, untraced
//	go run . -workload fanin -trace 1        per-layer metrics
//	go run . -workload fanin -trace out.json per-layer metrics plus a Chrome trace
//	go run . -workload all                   every workload, one process each
//	go run . -probes                         the layer probes alone
//	go run . -check -workload fanin          digests at workers 1 and 2, traced and not
//	go run . -repeat 5 -workload fanin       five fresh runs: medians, quartiles, spreads
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	probes   bool
	check    bool
	repeat   int
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "fanin, bulk-lossy, cluster-audit, pack-churn, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 15, "host seconds of timed phases to measure per run")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: per-layer metrics; a file name: per-layer metrics plus a Chrome trace written there")
	fs.BoolVar(&o.probes, "probes", false, "run the layer probes alone")
	fs.BoolVar(&o.check, "check", false, "compare simulation digests at workers 1 and 2, traced and untraced")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times, each in a fresh process, and report medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.probes:
		err = probeMode(out)
	case o.workload == "":
		fs.Usage()
		return 2
	case o.workload != "all" && findWorkload(o.workload) == nil:
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", o.workload)
		return 2
	case o.check:
		err = checkMode(o, out)
	case o.repeat > 0:
		err = repeatMode(o, out)
	case o.workload == "all":
		err = allMode(o, out)
	default:
		err = runMode(o, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	return 0
}

// names returns the workloads o selects.
func (o options) names() []string {
	if o.workload != "all" {
		return []string{o.workload}
	}
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measureProcs is the number of threads that run Go code while the benchmark
// measures. On a host of two shared cores, a process that keeps both busy
// slows down whenever a neighbour takes one of them, by a fifth or more;
// one that keeps a single core busy loses a few percent. With one, a
// workload's fleet workers interleave rather than run side by side, so host
// metrics measure the total work of the simulation, not its parallel speed-up.
const measureProcs = 1

// runMode runs one workload for o.seconds of timed phases and prints its
// metrics, its simulation digest and the result line.
func runMode(o options, out io.Writer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	w := findWorkload(o.workload)
	traced := o.trace != "0"
	chrome := ""
	if traced && o.trace != "1" {
		chrome = o.trace
	}
	var plain, withSpans []*pass
	var failure error
	measured := 0.0
	for failure == nil {
		doTrace := traced && len(withSpans) < len(plain)
		p := runPass(w, o.seed, w.workers, false, doTrace)
		if doTrace {
			withSpans = append(withSpans, p)
			if chrome != "" && len(withSpans) == 1 && p.err == nil {
				failure = writeChrome(chrome, p.names, p.traces)
			}
			p.names, p.traces = nil, nil
		} else {
			plain = append(plain, p)
		}
		if p.err != nil {
			failure = p.err
		}
		measured += p.wall.Seconds()
		if measured >= o.seconds && len(plain) >= 3 && (!traced || len(withSpans) >= 2) {
			break
		}
	}

	all := append(append([]*pass(nil), plain...), withSpans...)
	res := result{Metrics: map[string]metric{}}
	for _, p := range all {
		res.Attempted += p.ops
		res.Failed += p.failed
		if p.digest != all[0].digest && p.err == nil && failure == nil {
			failure = fmt.Errorf("pass digests differ: %s vs %s", p.digest, all[0].digest)
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the run aborted before its first op: count it
		res.Failed = 1
	}

	first := plain[0]
	fmt.Fprintf(out, "%s  seed %d  workers %d  passes %d untraced + %d traced  ops/pass %d\n",
		w.name, o.seed, w.workers, len(plain), len(withSpans), first.ops)
	if traced {
		layer := map[string]float64{}
		if len(withSpans) > 0 {
			layer = layerMedians(withSpans)
			layer["perf.trace_overhead_frac"] = median(walls(withSpans))/median(walls(plain)) - 1
		}
		probes, err := runProbes()
		if err != nil && failure == nil {
			failure = err
		}
		for k, v := range probes {
			layer[k] = v
		}
		for _, d := range perLayer() {
			res.Metrics[d.name] = metric{layer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{endToEndValue(d.name, plain, first), d.unit}
		}
	}
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "  %-40s %g fraction (%d of %d ops failed)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(out, "sim_digest %s\n", first.digest)
	res.Correct = failure == nil && res.Failed == 0
	if failure != nil {
		fmt.Fprintln(out, "error:", failure)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		if failure == nil {
			failure = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
		}
		return failure
	}
	return nil
}

// endToEndValue computes one end-to-end metric: host metrics as the median
// across untraced passes, simulated metrics from any pass (they are equal).
func endToEndValue(name string, plain []*pass, first *pass) float64 {
	per := func(f func(p *pass) float64) float64 {
		v := make([]float64, len(plain))
		for i, p := range plain {
			v[i] = f(p)
		}
		return median(v)
	}
	switch name {
	case "setup_s":
		return per(func(p *pass) float64 { return p.setup.Seconds() })
	case "host_ops_per_s":
		return per(func(p *pass) float64 { return float64(p.ops) / p.wall.Seconds() })
	case "host_allocs_per_op":
		return per(func(p *pass) float64 { return float64(p.mallocs) / float64(p.ops) })
	case "host_peak_rss_mb":
		return per(func(p *pass) float64 { return p.rss })
	case "sim_makespan_s":
		return simMetric(first.makespan, time.Second)
	case "sim_req_p50_ms":
		return simMetric(first.p50, time.Millisecond)
	case "sim_req_p99_ms":
		return simMetric(first.p99, time.Millisecond)
	}
	panic("perf: no end-to-end metric " + name)
}

// layerMedians takes each per-layer metric's median across traced passes.
func layerMedians(passes []*pass) map[string]float64 {
	out := map[string]float64{}
	for name := range passes[0].layer {
		v := make([]float64, 0, len(passes))
		for _, p := range passes {
			if p.layer != nil {
				v = append(v, p.layer[name])
			}
		}
		out[name] = median(v)
	}
	return out
}

func walls(passes []*pass) []float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = p.wall.Seconds()
	}
	return v
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-40s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// MarshalJSON writes an infinite value (a failed op's latency) as the
// largest finite number, since JSON has no infinity.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	type plain metric
	return json.Marshal(plain{v, m.Unit})
}

// probeMode runs the layer probes alone.
func probeMode(out io.Writer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	probes, err := runProbes()
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: len(probeNames), Metrics: map[string]metric{}}
	for _, d := range perLayer() {
		if v, ok := probes[d.name]; ok {
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	printMetrics(out, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// checkMode runs each workload once at workers 1 and 2, untraced and traced,
// and fails unless all four simulation digests agree and every op passed.
func checkMode(o options, out io.Writer) error {
	bad := 0
	for _, name := range o.names() {
		w := findWorkload(name)
		var first string
		for _, workers := range []int{1, 2} {
			for _, traced := range []bool{false, true} {
				p := runPass(w, o.seed, workers, false, traced)
				status := "ok"
				switch {
				case p.err != nil:
					status = p.err.Error()
				case p.failed > 0:
					status = fmt.Sprintf("%d of %d ops failed", p.failed, p.ops)
				case first != "" && p.digest != first:
					status = "digest differs"
				}
				if first == "" {
					first = p.digest
				}
				if status != "ok" {
					bad++
				}
				fmt.Fprintf(out, "%-14s workers=%d traced=%-5v sim_digest %s  %s\n", name, workers, traced, p.digest, status)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("check failed in %d configurations", bad)
	}
	return nil
}

// allMode runs every workload, each in a fresh process so each reports its
// own peak memory.
func allMode(o options, out io.Writer) error {
	failed := 0
	for _, name := range o.names() {
		trace := o.trace
		if trace != "0" && trace != "1" {
			ext := filepath.Ext(trace)
			trace = strings.TrimSuffix(trace, ext) + "." + name + ext
		}
		cmd, err := self(name, o.seed, o.seconds, trace)
		if err != nil {
			return err
		}
		cmd.Stdout = out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workloads failed", failed)
	}
	return nil
}

// self builds a command that re-runs this program on one workload.
func self(workload string, seed uint64, seconds float64, trace string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace), nil
}

// repeatMode runs each selected workload o.repeat times, each run a fresh
// process, and reports every end-to-end metric's median and quartiles. It
// fails if a host metric's quartile spread exceeds its bound in
// BENCHMARK.json, or if any simulated metric or the digest varies.
func repeatMode(o options, out io.Writer) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	var problems []string
	for _, name := range o.names() {
		values := map[string][]float64{}
		digests := map[string]int{}
		for k := 0; k < o.repeat; k++ {
			cmd, err := self(name, o.seed, o.seconds, "0")
			if err != nil {
				return err
			}
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s run %d: %v", name, k+1, err))
				continue
			}
			res, digest, err := parseRun(stdout)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, k+1, err)
			}
			digests[digest]++
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		fmt.Fprintf(out, "%s  seed %d  %d runs\n", name, o.seed, o.repeat)
		fmt.Fprintf(out, "  %-22s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range endToEnd {
			v := values[d.name]
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := ratio(q3-q1, med)
			fmt.Fprintf(out, "  %-22s %14.6g %14.6g %14.6g %8.4f %6.3f\n", d.name, med, q1, q3, spread, bounds[d.name])
			if strings.HasPrefix(d.name, "sim_") {
				if q1 != q3 || v[0] != med {
					problems = append(problems, fmt.Sprintf("%s %s varies across runs", name, d.name))
				}
			} else if spread > bounds[d.name] {
				problems = append(problems, fmt.Sprintf("%s %s spread %.4f exceeds bound %.3f", name, d.name, spread, bounds[d.name]))
			}
		}
		for d := range digests {
			fmt.Fprintf(out, "  sim_digest %s (%d runs)\n", d, digests[d])
		}
		if len(digests) > 1 {
			problems = append(problems, fmt.Sprintf("%s sim_digest varies across runs", name))
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// parseRun reads a run's result line and digest from its output.
func parseRun(stdout []byte) (result, string, error) {
	var res result
	var digest, last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "sim_digest "); ok {
			digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, "", fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return res, "", fmt.Errorf("run reported incorrect results (%d of %d ops failed)", res.Failed, res.Attempted)
	}
	return res, digest, nil
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchFile finds BENCHMARK.json in the working directory or the
// nearest directory above it.
func loadBenchFile() (*benchFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var b benchFile
			if err := json.Unmarshal(data, &b); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &b, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found")
		}
		dir = parent
	}
}

func readBounds() (map[string]float64, error) {
	b, err := loadBenchFile()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// median of v (v is sorted in place); 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) computes them (its default
// exclusive method), so a spread printed here matches one computed there.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
