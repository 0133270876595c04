package experiments

import (
	"fmt"

	"altoos/internal/crashpoint"
	"altoos/internal/trace"
)

// e12CrashSweep exhaustively explores crash points: the paper claims a
// crash at an arbitrary point costs at most recent work, never consistency
// (§3.5). The explorer enumerates every point — power failing after write
// 1, 2, …, N of a journaled directory workload and of a pack compaction,
// each write also replayed as a torn (garbled mid-sector) landing — and
// after each crash the Scavenger repairs the pack and fsck re-proves every
// invariant.
func e12CrashSweep(tr *trace.Recorder) (*Result, error) {
	res := &Result{
		ID:    "E12",
		Title: "exhaustive crash-point sweep",
		Claim: "§3.5: a crash at an arbitrary point loses at most recent work; the Scavenger restores consistency",
	}
	var points, runs, clean, violations, repairs int
	for _, name := range []string{"journaled-insert", "compact"} {
		w, ok := crashpoint.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("e12: workload %q not registered", name)
		}
		r, err := crashpoint.Explore(w, crashpoint.Options{Workers: 4, Torn: true, Rec: tr})
		if err != nil {
			return nil, err
		}
		var reps, viols int
		for _, o := range r.Outcomes {
			reps += o.Repairs.Total()
			viols += len(o.Violations)
		}
		points += len(r.Points)
		runs += len(r.Outcomes)
		clean += r.Clean
		violations += viols
		repairs += reps
		res.add(fmt.Sprintf("%s: crash points", name), "%d (every write action, clean + torn)", len(r.Points))
		res.add(fmt.Sprintf("%s: recovered", name), "%d/%d runs, %d repairs applied, %d violations",
			r.Clean, len(r.Outcomes), reps, viols)
	}
	if violations != 0 {
		return nil, fmt.Errorf("e12: %d invariant violations survived recovery", violations)
	}
	res.add("total", "%d points, %d crash-and-recover runs, %d repairs", points, runs, repairs)
	res.metric("crash_points_total", float64(points))
	res.metric("violations_total", float64(violations))
	res.metric("recovered_pct", 100*float64(clean)/float64(runs))
	return res, nil
}
