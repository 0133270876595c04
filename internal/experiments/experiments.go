// Package experiments regenerates every quantitative claim in the paper's
// text — its "tables and figures". The paper is a design paper with no
// numbered exhibits, so each embedded claim is promoted to an experiment
// E1..E9 (see DESIGN.md §3 and EXPERIMENTS.md for the index). Each
// experiment builds the workload it needs from scratch, runs it on the
// simulated machine, and reports the measured shape next to the paper's
// sentence.
//
// All times are simulated (the virtual clock the disk, CPU and network
// models advance); wall-clock time on the host is irrelevant to the claims.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/trace"
)

// Row is one line of an experiment's table.
type Row struct {
	Label string
	Value string
}

// Result is a completed experiment.
type Result struct {
	ID    string
	Title string
	Claim string // the paper's sentence, abridged
	Rows  []Row
	// Metrics carries machine-readable values for benchmarks.
	Metrics map[string]float64
}

// Table renders the result for a terminal.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "  paper: %s\n", r.Claim)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-44s %s\n", row.Label, row.Value)
	}
	return b.String()
}

func (r *Result) add(label, format string, args ...any) {
	r.Rows = append(r.Rows, Row{Label: label, Value: fmt.Sprintf(format, args...)})
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// rig builds a formatted drive + fs + root for experiments.
type rig struct {
	drive *disk.Drive
	fs    *file.FS
	root  *dir.Directory
}

func newRig(g disk.Geometry, rec *trace.Recorder) (*rig, error) {
	d, err := disk.NewDrive(g, 1, nil)
	if err != nil {
		return nil, err
	}
	d.SetRecorder(rec)
	fs, err := file.Format(d)
	if err != nil {
		return nil, err
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		return nil, err
	}
	return &rig{drive: d, fs: fs, root: root}, nil
}

// addFile creates a named file with n full data pages of deterministic
// content plus the trailing partial page.
func (r *rig) addFile(name string, pages int) (*file.File, error) {
	f, err := r.fs.Create(name)
	if err != nil {
		return nil, err
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= pages; pn++ {
		for i := range page {
			page[i] = disk.Word((pn*31 + i) & 0xFFFF) // test-pattern fill: truncation is the point
		}
		if err := f.WritePage(disk.Word(pn), &page, disk.PageBytes); err != nil {
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := r.root.Insert(name, f.FN()); err != nil {
		return nil, err
	}
	return f, nil
}

// readSequential reads pages 1..last of f, returning simulated time per page.
func (r *rig) readSequential(f *file.File) (time.Duration, int, error) {
	lastPN := f.LastPN()
	start := r.drive.Clock().Now()
	var buf [disk.PageWords]disk.Word
	for pn := disk.Word(1); pn <= lastPN; pn++ {
		if _, err := f.ReadPage(pn, &buf); err != nil {
			return 0, 0, err
		}
	}
	return r.drive.Clock().Now() - start, int(lastPN), nil
}

// ms formats a duration as milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// secs formats a duration as seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// recorders hands out machine recorders and keeps each distinct one, so a
// counter sums the same whether a run traced into one recorder or one per
// machine: retransmits live on the client and server machines, drops on the
// wire.
type recorders struct {
	machine func(string) *trace.Recorder
	seen    map[*trace.Recorder]bool
	all     []*trace.Recorder
}

func newRecorders(machine func(string) *trace.Recorder) *recorders {
	return &recorders{machine: machine, seen: map[*trace.Recorder]bool{}}
}

// get returns the named machine's recorder.
func (rs *recorders) get(name string) *trace.Recorder {
	r := rs.machine(name)
	if r != nil && !rs.seen[r] {
		rs.seen[r] = true
		rs.all = append(rs.all, r)
	}
	return r
}

// counter sums the named counter over every recorder handed out.
func (rs *recorders) counter(name string) int64 {
	var total int64
	for _, r := range rs.all {
		total += r.Counter(name)
	}
	return total
}

// Runner names one experiment and its entry point. Run executes it: workers
// is the fleet engine's worker-pool width (experiments that run no fleet
// ignore it; the schedule is identical at any width), and machine maps a
// simulated machine's name to its flight recorder — nil turns tracing off,
// and scope.Fleet.Machine gives each machine its own. Experiments that model
// one machine record into machine("machine"). A machine function that hands
// every name the same recorder keeps the event order deterministic only at
// one worker.
type Runner struct {
	ID    string
	Title string
	Run   func(workers int, machine func(string) *trace.Recorder) (*Result, error)
}

// single adapts a one-machine experiment to the Runner signature.
func single(run func(*trace.Recorder) (*Result, error)) func(int, func(string) *trace.Recorder) (*Result, error) {
	return func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
		if machine == nil {
			return run(nil)
		}
		return run(machine("machine"))
	}
}

// registry lists every experiment in order.
var registry = []Runner{
	{ID: "e1", Title: "raw sequential transfer", Run: single(e1RawTransfer)},
	{ID: "e2", Title: "allocation and free cost", Run: single(e2AllocFreeCost)},
	{ID: "e3", Title: "scavenge time by disk size", Run: single(e3Scavenge)},
	{ID: "e4", Title: "compaction speedup", Run: single(e4Compaction)},
	{ID: "e5", Title: "hint-ladder costs", Run: single(e5HintLadder)},
	{ID: "e6", Title: "world-swap timing", Run: single(e6WorldSwap)},
	{ID: "e7", Title: "Junta memory reclaim", Run: single(e7Junta)},
	{ID: "e8", Title: "fault injection", Run: single(e8Robustness)},
	{ID: "e9", Title: "installed hints", Run: single(e9InstalledHints)},
	{ID: "e10", Title: "loaded file server over a lossy wire", Run: e10LoadedServer},
	{ID: "e11", Title: "goodput vs. packet loss", Run: single(e11LossSweep)},
	{ID: "e12", Title: "exhaustive crash-point sweep", Run: single(e12CrashSweep)},
	{ID: "e13", Title: "segment saturation and fairness", Run: e13Saturation},
	{ID: "e14", Title: "fleet fan-in: a hundred Altos on one file server", Run: e14FleetFanIn},
	{ID: "e15", Title: "sharded cluster with a distributed Scavenger", Run: e15ClusterAudit},
}

// IDs lists the experiment ids Run accepts, in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Run executes the experiment with the given id (case-insensitive); see
// Runner for workers and machine.
func Run(id string, workers int, machine func(string) *trace.Recorder) (*Result, error) {
	for _, r := range registry {
		if strings.EqualFold(r.ID, id) {
			return r.Run(workers, machine)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}
