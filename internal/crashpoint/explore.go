package crashpoint

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"altoos/internal/fsck"
	"altoos/internal/scavenge"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cPoints     = trace.NewCounter("crashpoint.points")
	cRepairs    = trace.NewCounter("crashpoint.repairs")
	cRuns       = trace.NewCounter("crashpoint.runs")
	cViolations = trace.NewCounter("crashpoint.violations")
)

// Options configures one exploration sweep.
type Options struct {
	// Points caps how many crash points are explored; <= 0 (or more than
	// the workload's writes) explores every write in the window. Sampled
	// points are spread evenly and always include the first and last write.
	Points int
	// Workers is the number of independent disk images exploring points
	// concurrently; <= 1 runs serially. The merged result is identical for
	// any worker count.
	Workers int
	// Torn explores every point twice: once with the in-flight write
	// suppressed cleanly, once with it landing garbled mid-sector.
	Torn bool
	// Rec, when non-nil, receives one KindCrashExplore span per explored
	// run plus the crashpoint.* counters, emitted in schedule order after
	// the merge — never from inside a worker.
	Rec *trace.Recorder
}

// Repairs distills what the Scavenger had to do after one crash.
type Repairs struct {
	PagesFreed        int  `json:"pages_freed,omitempty"`
	DuplicatesFreed   int  `json:"duplicates_freed,omitempty"`
	HeadlessFreed     int  `json:"headless_freed,omitempty"`
	IncompleteFiles   int  `json:"incomplete_files,omitempty"`
	LinksRepaired     int  `json:"links_repaired,omitempty"`
	LeadersRepaired   int  `json:"leaders_repaired,omitempty"`
	TailPagesAdded    int  `json:"tail_pages_added,omitempty"`
	DirsRepaired      int  `json:"dirs_repaired,omitempty"`
	DirEntriesFixed   int  `json:"dir_entries_fixed,omitempty"`
	DirEntriesRemoved int  `json:"dir_entries_removed,omitempty"`
	OrphansAdopted    int  `json:"orphans_adopted,omitempty"`
	RootRecreated     bool `json:"root_recreated,omitempty"`
	DescRecreated     bool `json:"desc_recreated,omitempty"`
}

// Total counts individual repair actions across every category.
func (r Repairs) Total() int {
	n := r.PagesFreed + r.DuplicatesFreed + r.HeadlessFreed + r.IncompleteFiles +
		r.LinksRepaired + r.LeadersRepaired + r.TailPagesAdded +
		r.DirsRepaired + r.DirEntriesFixed + r.DirEntriesRemoved + r.OrphansAdopted
	if r.RootRecreated {
		n++
	}
	if r.DescRecreated {
		n++
	}
	return n
}

func summarize(rep *scavenge.Report) Repairs {
	return Repairs{
		PagesFreed:        rep.PagesFreed,
		DuplicatesFreed:   rep.DuplicatesFreed,
		HeadlessFreed:     rep.HeadlessFreed,
		IncompleteFiles:   rep.IncompleteFiles,
		LinksRepaired:     rep.LinksRepaired,
		LeadersRepaired:   rep.LeadersRepaired,
		TailPagesAdded:    rep.TailPagesAdded,
		DirsRepaired:      rep.DirsRepaired,
		DirEntriesFixed:   rep.DirEntriesFixed,
		DirEntriesRemoved: rep.DirEntriesRemoved,
		OrphansAdopted:    rep.OrphansAdopted,
		RootRecreated:     rep.RootRecreated,
		DescRecreated:     rep.DescRecreated,
	}
}

// Outcome is the verdict on one explored crash point: what the workload
// saw, what the Scavenger repaired, and what fsck still found wrong
// (nothing, if the paper's claim holds).
type Outcome struct {
	Point      int      `json:"point"`
	Torn       bool     `json:"torn"`
	CrashAt    int64    `json:"crash_at"` // lifetime write index that fired
	RunErr     string   `json:"run_err,omitempty"`
	Repairs    Repairs  `json:"repairs"`
	Violations []string `json:"violations,omitempty"`
	Consistent bool     `json:"consistent"`

	// sim is the run's simulated elapsed time (workload, scavenge and
	// fsck), carried for the trace spans; it stays out of the JSON report.
	sim time.Duration
}

// Result is one whole sweep, outcomes in schedule order (ascending point,
// clean before torn).
type Result struct {
	Workload string    `json:"workload"`
	Writes   int64     `json:"writes"` // write actions in the explored window
	Torn     bool      `json:"torn"`
	Points   []int     `json:"points"`
	Clean    int       `json:"clean"` // outcomes with zero violations
	Outcomes []Outcome `json:"outcomes"`
}

// Consistent reports whether every explored crash point recovered to a
// violation-free pack.
func (r *Result) Consistent() bool { return r.Clean == len(r.Outcomes) }

// JSON renders the report; byte-identical for byte-identical sweeps.
func (r *Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Explore sweeps the workload's crash points. The workload is first run to
// completion on a fresh pack to count the write actions in its window; each
// explored point then rebuilds an identical rig, arms the crash, runs,
// "reboots" into the Scavenger and hands the repaired pack to fsck.
func Explore(w Workload, opts Options) (*Result, error) {
	rig, err := w.Build()
	if err != nil {
		return nil, fmt.Errorf("crashpoint: building %s baseline: %w", w.Name, err)
	}
	before := rig.Drive.Stats().Writes
	if err := rig.Run(); err != nil {
		return nil, fmt.Errorf("crashpoint: %s baseline run: %w", w.Name, err)
	}
	writes := rig.Drive.Stats().Writes - before
	if writes == 0 {
		return nil, fmt.Errorf("crashpoint: workload %s performs no writes; nothing to explore", w.Name)
	}

	points := samplePoints(writes, opts.Points)
	type task struct {
		point int
		torn  bool
	}
	tasks := make([]task, 0, 2*len(points))
	for _, p := range points {
		tasks = append(tasks, task{p, false})
		if opts.Torn {
			tasks = append(tasks, task{p, true})
		}
	}

	// The pool pulls task indices from an atomic cursor; every worker owns
	// its own disk images, and each result lands at its task's slot, so the
	// merge is the schedule order no matter which worker ran what when.
	outcomes := make([]Outcome, len(tasks))
	errs := make([]error, len(tasks))
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				outcomes[i], errs[i] = explorePoint(w, tasks[i].point, tasks[i].torn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Workload: w.Name,
		Writes:   writes,
		Torn:     opts.Torn,
		Points:   points,
		Outcomes: outcomes,
	}
	for i := range outcomes {
		if outcomes[i].Consistent {
			res.Clean++
		}
	}
	if opts.Rec != nil {
		emitTrace(opts.Rec, w.Name, res)
	}
	return res, nil
}

// explorePoint runs one crash: fresh rig, armed drive, workload, reboot,
// Scavenger, fsck. A checker failure is a verdict about the pack, not an
// explorer error — only a build failure aborts the sweep.
func explorePoint(w Workload, point int, torn bool) (Outcome, error) {
	rig, err := w.Build()
	if err != nil {
		return Outcome{}, fmt.Errorf("crashpoint: rebuilding %s for point %d: %w", w.Name, point, err)
	}
	d := rig.Drive
	d.SetTornCrash(torn)
	d.CrashAfterWrites(int64(point) - 1)
	runErr := rig.Run()
	// Reboot: power is back, the in-flight damage stays.
	d.ClearCrash()
	d.SetTornCrash(false)

	o := Outcome{Point: point, Torn: torn}
	if runErr != nil {
		o.RunErr = runErr.Error()
	}
	at, fired := d.CrashAt()
	if !fired {
		o.Violations = append(o.Violations,
			fmt.Sprintf("crash point %d never fired; the workload's write schedule drifted", point))
		return o, nil
	}
	o.CrashAt = at

	_, rep, err := scavenge.Run(d)
	if err != nil {
		o.Violations = append(o.Violations, fmt.Sprintf("scavenge failed: %v", err))
		return o, nil
	}
	o.Repairs = summarize(rep)

	fr, err := fsck.Check(d)
	if err != nil {
		o.Violations = append(o.Violations, fmt.Sprintf("fsck aborted: %v", err))
		return o, nil
	}
	o.Violations = append(o.Violations, fr.Strings()...)
	if rig.Verify != nil {
		o.Violations = append(o.Violations, rig.Verify()...)
	}
	o.Consistent = len(o.Violations) == 0
	o.sim = d.Clock().Now()
	return o, nil
}

// samplePoints picks which of the n window writes to crash on: all of them,
// or k spread evenly with the first and last always included.
func samplePoints(n int64, k int) []int {
	total := int(n)
	if k <= 0 || k >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	if k == 1 {
		return []int{(total + 1) / 2}
	}
	out := make([]int, 0, k)
	last := 0
	for i := 0; i < k; i++ {
		p := 1 + i*(total-1)/(k-1)
		if p != last {
			out = append(out, p)
			last = p
		}
	}
	return out
}

// emitTrace lays the sweep into the recorder: one span per run, end to end
// in schedule order (each run had its own private clock, so the spans are
// placed on a cumulative timeline), plus the aggregate counters.
func emitTrace(rec *trace.Recorder, name string, res *Result) {
	var off time.Duration
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		label := name
		if o.Torn {
			label = name + "/torn"
		}
		rec.EmitSpan(off, o.sim, trace.KindCrashExplore, label, int64(o.Point), int64(len(o.Violations)))
		off += o.sim
		rec.Add(cRuns, 1)
		rec.Add(cViolations, int64(len(o.Violations)))
		rec.Add(cRepairs, int64(o.Repairs.Total()))
	}
	rec.Add(cPoints, int64(len(res.Points)))
}
