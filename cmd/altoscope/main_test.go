package main

import (
	"bytes"
	"testing"

	"altoos/internal/scope"
	"altoos/internal/trace"
)

// runE10Fleet runs E10 with one recorder per machine.
func runE10Fleet(t *testing.T) []scope.MachineTrace {
	t.Helper()
	_, fleet, err := runFleet("e10", 4, trace.DefaultEvents)
	if err != nil {
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
// chain: the wire's fault verdicts reference flows that client requests own.
func TestE10FaultsStayOnTheFlow(t *testing.T) {
	machines := runE10Fleet(t)
	clientFlows := map[int64]bool{}
	var wire *trace.Recorder
	for _, m := range machines {
		if m.Name == "wire" {
			wire = m.Rec
			continue
		}
		for _, ev := range m.Rec.Events() {
			if ev.Flow != 0 {
				clientFlows[ev.Flow] = true
			}
		}
	}
	faults, onFlow := 0, 0
	for _, ev := range wire.Events() {
		if ev.Kind != trace.KindEtherFault {
			continue
		}
		faults++
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
		tr, c, p, err := render(scope.Merge(v.machines, v.workers), 20)
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
