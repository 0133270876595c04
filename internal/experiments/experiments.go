// Package experiments regenerates every quantitative claim in the paper's
// text — its "tables and figures". The paper is a design paper with no
// numbered exhibits, so each embedded claim is promoted to an experiment
// E1..E15, and each design decision the paper argues for is turned off in an
// ablation A1..A4 (see DESIGN.md §3 and EXPERIMENTS.md for the index). Each
// experiment builds the workload it needs from scratch, runs it on the
// simulated machine, and reports the measured shape next to the paper's
// sentence.
//
// All times are simulated (the virtual clock the disk, CPU and network
// models advance); wall-clock time on the host is irrelevant to the claims.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/trace"
)

// Row is one line of an experiment's table.
type Row struct {
	Label string `json:"name"`
	Value string `json:"value"`
}

// Result is a completed experiment, encoded as altobench's -json document.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Claim string `json:"claim"` // the paper's sentence, abridged
	Rows  []Row  `json:"rows"`
	// Metrics carries machine-readable values for benchmarks.
	Metrics map[string]float64 `json:"metrics"`
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
// counter sums over every machine the run named: retransmits and drops live
// on the machines that sent the packets. With no machine function each name
// gets a private recorder, since those counters are the experiment's
// evidence even when tracing is off.
type recorders struct {
	machine func(string) *trace.Recorder
	seen    map[*trace.Recorder]bool
	all     []*trace.Recorder
}

func newRecorders(machine func(string) *trace.Recorder) *recorders {
	if machine == nil {
		own := map[string]*trace.Recorder{}
		machine = func(name string) *trace.Recorder {
			if own[name] == nil {
				own[name] = trace.New(1 << 10)
			}
			return own[name]
		}
	}
	return &recorders{machine: machine, seen: map[*trace.Recorder]bool{}}
}

// get returns the named machine's recorder.
func (rs *recorders) get(name string) *trace.Recorder {
	r := rs.machine(name)
	if !rs.seen[r] {
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

// experiment is one registry entry, the one place a claim lives: the title
// and paper sentence its result prints, run, which measures it, and the
// bands its -json document must fall within. run's workers is the fleet
// engine's worker-pool width (experiments that run no fleet ignore it), and
// machine maps a machine's name to its flight recorder, as
// scope.Fleet.Machine does — nil turns tracing off; a one-machine
// experiment records into machine("machine").
type experiment struct {
	id, title, claim string
	run              func(workers int, machine func(string) *trace.Recorder) (*Result, error)
	bands            []band
}

// band holds one metric of a claim within [lo, hi]; why says what part of
// the claim the band encodes.
type band struct {
	metric string
	lo, hi float64
	why    string
}

// single adapts a one-machine experiment to the registry's run signature.
func single(run func(*trace.Recorder) (*Result, error)) func(int, func(string) *trace.Recorder) (*Result, error) {
	return func(_ int, machine func(string) *trace.Recorder) (*Result, error) {
		if machine == nil {
			return run(nil)
		}
		return run(machine("machine"))
	}
}

// registry lists every experiment in order: the claims E1–E15, then the
// ablations A1–A4 (ablations.go). Each band's metric names a key of the
// result's Metrics. init fills it, since E14FanIn and E15Cluster, which it
// runs, name their results from it.
var registry []experiment

func init() {
	registry = []experiment{
		{"e1", "raw sequential transfer", "the disk can transfer 64K words in about one second (§2)", single(e1RawTransfer), []band{
			{"sim_seconds_64kwords", 0.5, 2.0, `"about one second" for 64K words, read from a 256-page consecutive file; the overshoot is cylinder-crossing latency the raw-rate claim ignores`},
			{"words_per_sec", 30_000, 80_000, "the same claim as a rate"},
		}},
		{"e2", "allocation and free cost in revolutions", "allocating or freeing a page costs one disk revolution; ordinary writes check the label free of charge (§3.3)", single(e2AllocFreeCost), []band{
			{"alloc_overhead_revs", 0.9, 1.1, `"costs a disk revolution each time a page is allocated", over an ordinary write, averaged over 400 random sectors`},
			{"free_overhead_revs", 0.9, 1.1, "the same revolution when a page is freed"},
		}},
		{"e3", "scavenge time by disk size", "scavenging takes about a minute for a 2.5 megabyte disk (§3.5)", single(e3Scavenge), []band{
			{"scavenge_seconds_Diablo31", 10, 120, `"about a minute for a 2.5 megabyte disk": the same order of magnitude on a 60%-full Diablo 31; the sweep reads each cylinder's labels as one free-order chain, so the run lands at the fast end`},
			{"scavenge_seconds_Trident", 5, 120, "a 5 MB Trident at twice the speed: the same order"},
		}},
		{"e4", "sequential read speedup from the compacting scavenger", "compaction speeds sequential reads by an order of magnitude (§3.5)", single(e4Compaction), []band{
			{"speedup", 4, 20, "a 12-way interleave compacted: the milder of the two scatter regimes that bracket 10x"},
			{"aged_speedup", 8, 25, "an aged disk (files on random cylinders) compacted: the harsher regime"},
		}},
		{"e5", "cost of each hint-ladder level", "a correct hint reaches a page in one access; each recovery level costs more, ending at the Scavenger (§3.6)", single(e5HintLadder), []band{
			{"ms_direct_hint", 1, 80, "a correct hint is a single disk access: well under two revolutions"},
		}},
		{"e6", "world-swap (OutLoad/InLoad) timing", "OutLoad and InLoad each require about a second (§4.1)", single(e6WorldSwap), []band{
			{"outload_seconds", 0.5, 3, `"requires about a second" for an installed OutLoad, which moves the machine state as chained multi-page transfers`},
			{"inload_seconds", 0.5, 3, "the same second for InLoad"},
		}},
		{"e7", "memory reclaimed per Junta level", "Junta removes all higher-numbered levels and frees the storage they occupy (§5.2)", single(e7Junta), nil},
		{"e8", "fault injection: label checks and the Scavenger", "label checking makes accidental overwriting quite unlikely; lost information is negligible (§3.3, §6)", single(e8Robustness), []band{
			{"wild_writes_rejected_pct", 100, 100, "every wild write with a wrong or stale full name is rejected by the label check"},
			{"undamaged_recovery_pct", 100, 100, "after random label corruptions the Scavenger recovers every untouched file"},
			{"map_lie_retries", 1, math.Inf(1), "allocation-map lies must cost retries, or the run is not exercising the label check"},
		}},
		{"e9", "installed-program hints: warm start vs reinstallation", "an installed program starts up and reaches its auxiliary files at maximum disk speed; a failed hint forces reinstallation (§3.6)", single(e9InstalledHints), []band{
			{"warm_advantage", 1.5, 20, "a warm start on saved hints beats a cold start by string lookup"},
			{"hints_failed_after_delete", 1, 1, "deleting one scratch file fails exactly its hint, cleanly, and reinstalling repairs it"},
		}},
		{"e10", "loaded file server over a 10%-loss wire", "§1: only the packet representation is standardized; different programs interoperate over the network", e10LoadedServer, []band{
			{"goodput_words_per_sec", 300, 20_000, "8 clients through one file server; the run errors on any corrupted transfer or on zero retransmissions, so the bands guard the throughput shape"},
			{"retransmits", 1, 2_000, "bounded: well under one per sent packet, even with every duplicate and corruption counted against the transport"},
			{"sim_seconds", 1, 120, "the throughput shape as simulated time"},
		}},
		{"e11", "steady-state goodput vs. packet loss", "§1: the network is a facility, not a guarantee — software above the packet layer pays for loss", e11LossSweep, []band{
			{"goodput_words_per_sec_loss10", 4900, 1e9, "the transport-v2 floor: at least 5x the ~979 words/s go-back-N measured at 10% loss"},
			{"goodput_words_per_sec_loss20", 4800, 1e9, "at least 5x go-back-N's ~957 words/s at 20% loss"},
			{"retransmits_loss0", 0, 10, "retransmits at 0% loss are genuine RTOs, one session's packets waiting out another session's disk write; they must stay a handful"},
			{"retransmits_loss20", 1, 500, "loss costs retransmissions, boundedly"},
			{"retransmitted_words_ratio_loss0", 0, 0.05, "resent words track the loss rate, not the window size as under go-back-N"},
			{"retransmitted_words_ratio_loss20", 0.1, 0.5, "the same at 20% loss"},
			{"wire_idle_frac_loss0", 0.5, 1, "the wire is mostly idle: the file server is disk-bound, which is the honest headline"},
			{"wire_idle_frac_loss20", 0.5, 1, "still mostly idle at 20% loss"},
		}},
		{"e12", "exhaustive crash-point sweep", "§3.5: a crash at an arbitrary point loses at most recent work; the Scavenger restores consistency", single(e12CrashSweep), []band{
			{"violations_total", 0, 0, "every crash point of both workloads, clean and torn, recovers to a pack fsck certifies"},
			{"recovered_pct", 100, 100, "every run recovers"},
			{"crash_points_total", 100, 1000, "the journaled-insert window alone is ~48 writes; compaction adds ~125"},
		}},
		{"e13", "segment saturation: two dozen flows share one lossy wire", "§1: the network is a shared facility — flows must coexist without a central allocator", e13Saturation, []band{
			{"jain_fairness_pct", 90, 100, "Jain's index >= 0.9: every one of the 24 flows got a comparable share with no central allocator; the run errors on any corrupted delivery"},
			{"goodput_words_per_sec_total", 50_000, 1e9, "liveness: the flows keep the segment moving"},
			{"retransmits", 1, math.Inf(1), "10% loss must produce retransmissions, or the fault medium is not wired in"},
		}},
		{"e14", "fleet fan-in: a hundred Altos boot and share one file server", "§1: single-user machines plus one shared wire scale to a building-sized system", e14FleetFanIn, []band{
			{"machines", 101, 101, "a hundred client Altos and one file server"},
			{"sim_seconds", 10, 1000, "a hundred clients against one disk-bound server queue up minutes of simulated time"},
			{"scheduler_steps", 1000, 10_000_000, "the fleet engine's activations; the run errors on any corrupted journal page or payload, so the metrics guard the shape"},
			{"bytes_moved", 100_000, 200_000, "every client's files stored and fetched back intact"},
			{"retransmits", 1, math.Inf(1), "a lossy wire and a backlogged server make retransmissions unavoidable"},
		}},
		{"e15", "sharded cluster: replicated stores, rot, and the distributed Scavenger", "§3.5 across machines: replicas audit each other back to byte-identical packs", e15ClusterAudit, []band{
			{"files_lost", 0, 0, "after rot and skipped overwrites, the audit loses no file"},
			{"bytes_corrupted", 0, 0, "and corrupts no byte: every replica byte-identical to its group"},
			{"retransmits", 1, math.Inf(1), "a wire losing 10% of its packets must produce retransmissions"},
		}},
		{"a1", "label check on ordinary writes, ablated", "ordinary writes check the label at no cost in time (§3.3)", single(a1LabelCheck), []band{
			{"revs_check_overhead", 0, 0, `"on any other write the label is checked, at no cost in time"`},
			{"revs/write_checked", 0.5, 2, "an ordinary write at a random sector, checked"},
		}},
		{"a2", "consecutive allocation, ablated", "consecutively allocated files read at full disk speed through computed-address hints (§3.6)", single(a2ConsecutiveAllocation), []band{
			{"ms/page_consecutive", 40.0 / 12, 80.0 / 12, "consecutively allocated files read at full disk speed: within two Diablo 31 sector times (40 ms a revolution, 12 sectors) a page"},
			{"slowdown_without_policy", 10, 30, "scattering them costs an order of magnitude"},
		}},
		{"a3", "per-file hint cache, ablated", "a correct hint reaches a page in one access; without hints every access chases links (§3.6)", single(a3HintCache), []band{
			{"ms/page_with_hints", 40.0 / 12, 80.0 / 12, "a correct hint reaches a page in one access, so a hinted sequential read streams at disk speed: within two sector times a page"},
			{"slowdown_without_hints", 10, 60, "living on links from the leader costs an order of magnitude"},
		}},
		{"a4", "directory journaling, the rejected alternative", `journaling directory changes was rejected: "we do not consider our directories important enough to warrant such attentions" (§3.5)`, single(a4DirectoryJournal), []band{
			{"journal_overhead_factor", 2, 10, "a journaled insert writes its log record before the directory page, so it costs at least twice a plain insert"},
		}},
	}
}

// IDs lists the experiment ids Run accepts, in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// entry returns the registry entry with the given id (case-insensitive),
// nil if there is none.
func entry(id string) *experiment {
	for i := range registry {
		if strings.EqualFold(registry[i].id, id) {
			return &registry[i]
		}
	}
	return nil
}

// fill names a result after its entry: upper-cased id, title and claim.
func (e *experiment) fill(res *Result, err error) (*Result, error) {
	if err == nil {
		res.ID, res.Title, res.Claim = strings.ToUpper(e.id), e.title, e.claim
	}
	return res, err
}

// Run executes the experiment with the given id (case-insensitive); see
// experiment for workers and machine.
func Run(id string, workers int, machine func(string) *trace.Recorder) (*Result, error) {
	e := entry(id)
	if e == nil {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e.fill(e.run(workers, machine))
}
