package main

import (
	"bytes"
	"strings"
	"testing"

	"altoos/internal/experiments"
	"altoos/internal/trace"
)

// runOnce executes one experiment with a fresh recorder and returns the
// exported trace and metrics bytes.
func runOnce(t *testing.T, id string) (traceJSON, metricsJSON []byte) {
	t.Helper()
	rec := trace.New(trace.DefaultEvents)
	if _, err := experiments.Run(id, 1, func(string) *trace.Recorder { return rec }); err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	var tb, mb bytes.Buffer
	if err := rec.WriteChromeTrace(&tb); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	if err := rec.Snapshot().WriteJSON(&mb); err != nil {
		t.Fatalf("write metrics: %v", err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestTracesAreByteIdentical is the determinism contract: the recorder is
// timed exclusively off the simulated clock, so two runs of the same
// experiment must export exactly the same bytes, trace and metrics alike.
func TestTracesAreByteIdentical(t *testing.T) {
	for _, id := range []string{"e1", "e2", "e8", "e10", "e12", "e13"} {
		t.Run(id, func(t *testing.T) {
			t1, m1 := runOnce(t, id)
			t2, m2 := runOnce(t, id)
			if !bytes.Equal(t1, t2) {
				t.Fatalf("%s: two runs exported different trace bytes (%d vs %d bytes)", id, len(t1), len(t2))
			}
			if !bytes.Equal(m1, m2) {
				t.Fatalf("%s: two runs exported different metrics bytes:\n%s\n---\n%s", id, m1, m2)
			}
			if len(t1) == 0 || !bytes.Contains(t1, []byte(`"traceEvents"`)) {
				t.Fatalf("%s: trace export does not look like a Chrome trace: %.80s", id, t1)
			}
		})
	}
}

// TestTraceCarriesDiskEvents spot-checks that an experiment that touches the
// disk actually lands events and counters in the export.
func TestTraceCarriesDiskEvents(t *testing.T) {
	rec := trace.New(trace.DefaultEvents)
	if _, err := experiments.Run("e1", 1, func(string) *trace.Recorder { return rec }); err != nil {
		t.Fatalf("run e1: %v", err)
	}
	if rec.Len() == 0 {
		t.Fatal("e1 recorded no events")
	}
	snap := rec.Snapshot()
	if snap.Events == 0 {
		t.Fatal("snapshot reports zero events")
	}
	var sawOps bool
	for _, c := range snap.Counters {
		if c.Name == "disk.ops" && c.Value > 0 {
			sawOps = true
		}
	}
	if !sawOps {
		t.Fatalf("no disk.ops counter in snapshot: %s", snap.Text())
	}
	var tb bytes.Buffer
	if err := rec.WriteChromeTrace(&tb); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	for _, want := range []string{`"cat":"disk"`, `"ph":"X"`, `"thread_name"`} {
		if !strings.Contains(tb.String(), want) {
			t.Fatalf("trace export missing %s", want)
		}
	}
}

// TestUnknownExperiment keeps the by-id error path honest for the CLI.
func TestUnknownExperiment(t *testing.T) {
	if _, err := experiments.Run("e99", 1, nil); err == nil {
		t.Fatal("expected an error for an unknown experiment id")
	}
}
