package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"altoos/internal/experiments"
	"altoos/internal/scope"
	"altoos/internal/trace"
)

// altobench parses args as the command line would and returns what the run
// prints.
func altobench(t *testing.T, args ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("altobench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parse(fs, args)
	if err != nil {
		t.Fatalf("altobench %s: %v", strings.Join(args, " "), err)
	}
	var out bytes.Buffer
	if err := c.exec(&out); err != nil {
		t.Fatalf("altobench %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestUsageErrors holds parse to its rule: a flag the other arguments would
// leave without effect is a usage error, and the combinations the flags are
// for are not.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" means the arguments are valid
	}{
		{[]string{"-machines", "25", "e13"}, "-machines applies to e14 only"},
		{[]string{"-machines", "25"}, "-machines applies to e14 only"},
		{[]string{"-clients", "6", "e14"}, "-clients applies to e15 only"},
		{[]string{"-seeds", "0-3", "e1"}, "-seeds applies to e15 only"},
		{[]string{"-json", "-scope", ".", "e1"}, "at most one of"},
		{[]string{"-json", "-seeds", "0-3"}, "at most one of"},
		{[]string{"-events", "64", "e1"}, "-events needs -scope"},
		{[]string{"-trace", "t.json", "e1"}, "flag provided but not defined: -trace"},
		{[]string{"-seeds", "0-3", "-workers", "2"}, "-seeds runs at workers 1 and 2"},
		{[]string{"-workers", "0", "e1"}, "-workers must be at least 1"},
		{[]string{"-json", "results.json"}, `"results.json" is not an experiment id`},
		{[]string{"e99"}, `"e99" is not an experiment id`},
		{nil, ""},
		{[]string{"-list"}, ""},
		{[]string{"E3", "e6"}, ""},
		{[]string{"-machines", "25", "-workers", "4", "e14"}, ""},
		{[]string{"-clients", "6", "e15"}, ""},
		{[]string{"-workers", "8", "-events", "64", "-scope", ".", "e10", "e13"}, ""},
		{[]string{"-seeds", "0-199", "-clients", "4"}, ""},
		{[]string{"-seeds", "3", "e15"}, ""},
	} {
		fs := flag.NewFlagSet("altobench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parse(fs, tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("altobench %s: unexpected error %v", strings.Join(tc.args, " "), err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("altobench %s: error %v, want one containing %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

// TestJSON pins -json's document: it decodes into {id, title, claim, rows,
// metrics}, and its metrics are the experiment's own.
func TestJSON(t *testing.T) {
	var doc struct {
		ID, Title, Claim string
		Rows             []struct{ Name, Value string }
		Metrics          map[string]float64
	}
	dec := json.NewDecoder(strings.NewReader(altobench(t, "-json", "e1")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if dec.More() {
		t.Fatal("more than one document for one id")
	}
	want, err := experiments.Run("e1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != want.ID || doc.Title != want.Title || doc.Claim != want.Claim {
		t.Errorf("document names %q %q %q, want %q %q %q", doc.ID, doc.Title, doc.Claim, want.ID, want.Title, want.Claim)
	}
	if len(doc.Rows) != len(want.Rows) || len(doc.Rows) == 0 || doc.Rows[0].Name != want.Rows[0].Label || doc.Rows[0].Value != want.Rows[0].Value {
		t.Errorf("rows %v, want %v", doc.Rows, want.Rows)
	}
	if !reflect.DeepEqual(doc.Metrics, want.Metrics) {
		t.Errorf("metrics %v, want %v", doc.Metrics, want.Metrics)
	}
}

// TestTraceCarriesDiskEvents spot-checks that an experiment that touches the
// disk actually lands events and counters in its -scope recording and export.
func TestTraceCarriesDiskEvents(t *testing.T) {
	fleet := scope.NewFleet(trace.DefaultEvents)
	if _, err := experiments.Run("e1", 1, fleet.Machine); err != nil {
		t.Fatalf("run e1: %v", err)
	}
	machines := fleet.Machines()
	if len(machines) != 1 || machines[0].Rec.Len() == 0 {
		t.Fatalf("e1 recorded no events on its one machine: %+v", machines)
	}
	snap := machines[0].Rec.Snapshot()
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
	traceJSON, _, _, err := render(scope.Merge(machines, 1))
	if err != nil {
		t.Fatalf("write trace: %v", err)
	}
	for _, want := range []string{`"cat":"disk"`, `"ph":"X"`, `"thread_name"`} {
		if !bytes.Contains(traceJSON, []byte(want)) {
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

// runE10Fleet runs E10 with one recorder per machine, as -scope does.
func runE10Fleet(t *testing.T) []scope.MachineTrace {
	t.Helper()
	fleet := scope.NewFleet(trace.DefaultEvents)
	if _, err := experiments.Run("e10", 4, fleet.Machine); err != nil {
		t.Fatal(err)
	}
	return fleet.Machines()
}

// TestE10SessionsLinkToClientRequests is the causal-chain acceptance bar: in
// E10 (8 clients, 10% loss) every fileserver session span the server records
// carries a flow ID allocated by — and stamped on a request span of — one of
// the client machines.
func TestE10SessionsLinkToClientRequests(t *testing.T) {
	machines := runE10Fleet(t)
	clientFlows := map[int64]string{}
	var server *trace.Recorder
	for _, m := range machines {
		if m.Name == "server" {
			server = m.Rec
			continue
		}
		for _, ev := range m.Rec.Events() {
			if ev.Kind == trace.KindFSSession && ev.Name == "client" && ev.Flow != 0 {
				clientFlows[ev.Flow] = m.Name
			}
		}
	}
	if server == nil {
		t.Fatal("no server machine in the fleet")
	}
	if len(clientFlows) != 32 {
		t.Fatalf("got %d client request flows, want 32 (8 clients x 4 transfers)", len(clientFlows))
	}
	sessions, requests := 0, 0
	for _, ev := range server.Events() {
		switch ev.Kind {
		case trace.KindFSSession:
			sessions++
			if ev.Flow == 0 {
				t.Errorf("server session span (peer %d) carries no flow", ev.A0)
			} else if _, ok := clientFlows[ev.Flow]; !ok {
				t.Errorf("server session flow %d matches no client request", ev.Flow)
			}
		case trace.KindFSRequest:
			requests++
			if _, ok := clientFlows[ev.Flow]; !ok {
				t.Errorf("server %s request flow %d matches no client request", ev.Name, ev.Flow)
			}
		}
	}
	if sessions != 8 {
		t.Errorf("server recorded %d session spans, want 8", sessions)
	}
	if requests != 32 {
		t.Errorf("server recorded %d request spans, want 32", requests)
	}
}

// TestE10FaultsStayOnTheFlow asserts injected loss renders on the causal
// chain: the fault verdicts each sending machine records reference flows
// that endpoints own. Ether send events sit beside the verdicts and carry
// the same packet's flow, so they are left out of the known set: a verdict
// must match a flow some endpoint (pup, fileserver, receive) recorded.
func TestE10FaultsStayOnTheFlow(t *testing.T) {
	machines := runE10Fleet(t)
	clientFlows := map[int64]bool{}
	var verdicts []trace.Event
	for _, m := range machines {
		for _, ev := range m.Rec.Events() {
			if ev.Kind == trace.KindEtherFault {
				verdicts = append(verdicts, ev)
			} else if ev.Flow != 0 && ev.Kind != trace.KindEtherSend {
				clientFlows[ev.Flow] = true
			}
		}
	}
	faults, onFlow := len(verdicts), 0
	for _, ev := range verdicts {
		if ev.Flow != 0 && clientFlows[ev.Flow] {
			onFlow++
		}
	}
	if faults == 0 {
		t.Fatal("a 10%-loss run recorded no fault verdicts")
	}
	// Only handshake-phase faults (Open/Close control packets before any
	// request) may legitimately lack a flow; data-phase faults dominate.
	if onFlow*2 < faults {
		t.Errorf("only %d of %d fault verdicts land on a known flow", onFlow, faults)
	}
}

// TestE10ProfileAccountsSpanTime pins the profiler acceptance bar: each
// machine's cumulative root time accounts for at least 95% of its covered
// span time (it is ≥100% by construction — roots span at least the union).
func TestE10ProfileAccountsSpanTime(t *testing.T) {
	merged := scope.Merge(runE10Fleet(t), 4)
	for _, p := range merged.MachineProfiles() {
		if p.Spans == 0 {
			t.Errorf("machine %s recorded no spans", p.Machine)
			continue
		}
		if float64(p.Total) < 0.95*float64(p.Covered) {
			t.Errorf("machine %s: profile accounts %v of %v covered (<95%%)",
				p.Machine, p.Total, p.Covered)
		}
	}
}

// TestE10MergedArtifactsAreByteIdentical pins the merge's half of the
// determinism contract: one E10 run's merged trace, collapsed profile and top
// table come out byte-identical whatever the merge's input order and worker
// count. (That the recordings themselves replay is TestDeterminism's job.)
func TestE10MergedArtifactsAreByteIdentical(t *testing.T) {
	machines := runE10Fleet(t)
	reversed := make([]scope.MachineTrace, len(machines))
	for i, m := range machines {
		reversed[len(machines)-1-i] = m
	}
	variants := []struct {
		label    string
		machines []scope.MachineTrace
		workers  int
	}{
		{"workers 1", machines, 1},
		{"workers 8", machines, 8},
		{"reversed merge order", reversed, 4},
	}
	var base [3][]byte
	for i, v := range variants {
		tr, c, p, err := render(scope.Merge(v.machines, v.workers))
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		got := [3][]byte{tr, c, p}
		if i == 0 {
			base = got
			continue
		}
		for j, name := range [3]string{"merged trace", "collapsed profile", "top table"} {
			if !bytes.Equal(base[j], got[j]) {
				t.Errorf("%s differs between %q and %q", name, variants[0].label, v.label)
			}
		}
	}
}

// TestE11SweepPointsKeepTheirOwnTimelines: E11 names its machines per
// sweep point (loss10/server, ...), so each point's clock, which starts at
// zero, has lanes of its own in the merged artifacts. When the five points
// shared three recorders their spans overlapped as if concurrent, and the
// collapsed profile held disk ops nested under a rotation wait — a stack
// one drive cannot produce. Every registered experiment is held to that: a
// machine that recorded its pack's format and then rewound its clock to
// zero would fold the format onto the run's time axis the same way.
func TestE11SweepPointsKeepTheirOwnTimelines(t *testing.T) {
	for _, id := range experiments.IDs() {
		fleet := scope.NewFleet(trace.DefaultEvents)
		if _, err := experiments.Run(id, 2, fleet.Machine); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		machines := fleet.Machines()
		if id == "e11" {
			var names []string
			for _, m := range machines {
				names = append(names, m.Name)
			}
			for _, want := range []string{"loss0/server", "loss10/client0", "loss20/client1"} {
				if !slices.Contains(names, want) {
					t.Errorf("no machine %s among %v", want, names)
				}
			}
			if len(names) != 15 {
				t.Errorf("%d machines, want 3 for each of 5 sweep points: %v", len(names), names)
			}
		}
		_, collapsed, _, err := render(scope.Merge(machines, 2))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := bytes.Count(collapsed, []byte("disk/rotate;disk")); n > 0 {
			t.Errorf("%s: collapsed profile nests a disk op under a rotation wait in %d stacks", id, n)
		}
	}
}

// TestSelfCheck holds the tool to its -workers claim at a reduced client
// count: the table altobench prints for E15 at widths 1, 2 and 8 differs
// only in the width it names.
func TestSelfCheck(t *testing.T) {
	var base string
	for _, workers := range []int{1, 2, 8} {
		got := altobench(t, "-clients", "4", "-workers", fmt.Sprint(workers), "e15")
		width := fmt.Sprintf("%d-worker", workers)
		if !strings.Contains(got, width) {
			t.Fatalf("workers=%d: table does not name its width:\n%s", workers, got)
		}
		got = strings.ReplaceAll(got, width, "N-worker")
		if base == "" {
			base = got
		} else if got != base {
			t.Fatalf("workers=1 and workers=%d print different tables:\n%s\n---\n%s", workers, base, got)
		}
	}
}

// TestSweep exercises the cluster-seeds gate at a reduced client count over a
// few wire seeds, and the range syntax it takes.
func TestSweep(t *testing.T) {
	if err := sweep(4, 0, 3); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in     string
		lo, hi uint64
		ok     bool
	}{
		{"0-199", 0, 199, true},
		{"15", 15, 15, true},
		{"5-3", 0, 0, false},
		{"-3", 0, 0, false},
		{"x", 0, 0, false},
	} {
		lo, hi, err := parseRange(tc.in)
		if (err == nil) != tc.ok || lo != tc.lo || hi != tc.hi {
			t.Errorf("parseRange(%q) = %d, %d, %v", tc.in, lo, hi, err)
		}
	}
}
