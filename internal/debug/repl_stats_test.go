package debug

import (
	"strings"
	"testing"

	"altoos/internal/disk"
	"altoos/internal/trace"
)

// TestREPLStats exercises the stats command: with a recorder attached the
// snapshot's counters come out, and with tracing off (nil recorder, the
// default) the command still answers with the empty snapshot instead of
// crashing Swat.
func TestREPLStats(t *testing.T) {
	w := newWorld(t)
	rec := trace.New(256)
	rec.Add(trace.NewCounter("disk.ops"), 42)
	rec.Observe(trace.NewHist("disk.op.revs"), 1.5)
	w.dbg.Trace = rec
	out := replSession(t, w, "stats\nq\n")
	for _, want := range []string{"events", "disk.ops", "42", "disk.op.revs", "p50=", "p99="} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestREPLStatsWithoutRecorder(t *testing.T) {
	w := newWorld(t)
	out := replSession(t, w, "stats\nq\n")
	if !strings.Contains(out, "events") {
		t.Fatalf("stats with tracing off should print the empty snapshot:\n%s", out)
	}
}

// TestREPLStatsShowsCrashCounters wires a drive that lived through a crash
// into the REPL: the crashed-write and torn-write counters the disk emits
// must surface verbatim in Swat's stats output, so an operator breaking
// into a rebooted machine can see how it died.
func TestREPLStatsShowsCrashCounters(t *testing.T) {
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(256)
	d.SetRecorder(rec)
	d.SetTornCrash(true)
	d.CrashAfterWrites(0)
	var lbl [disk.LabelWords]disk.Word
	var v [disk.PageWords]disk.Word
	op := disk.Op{Addr: 7, Label: disk.Write, LabelData: &lbl, Value: disk.Write, ValueData: &v}
	if err := d.Do(&op); err == nil {
		t.Fatal("armed crash did not fire")
	}

	w := newWorld(t)
	w.dbg.Trace = rec
	out := replSession(t, w, "stats\nq\n")
	for _, want := range []string{"disk.write.crashed", "disk.write.torn"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q after a torn crash:\n%s", want, out)
		}
	}
}
