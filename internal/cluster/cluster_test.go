package cluster

// Deterministic unit tests for the audit protocol. Each step is a short run
// of the fleet engine, the same engine E15 runs on: the replicas are
// daemons, and the scripted client or the auditing replica is the program.
// They cover scripted single-sector rot, a scripted divergent store (one
// replica missed an overwrite), silent peers, and byte-identical replay of a
// full audit-heal round across runs and engine widths.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// testGeometry is a small pack that still charges real seek/rotation time.
func testGeometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/12"
	g.Cylinders = 12
	return g
}

// rig is one cluster on a perfect wire plus a client machine, driven one
// engine run per step.
type rig struct {
	t       *testing.T
	workers int
	wire    *ether.Network
	c       *Cluster
	clock   *sim.Clock // the client machine's
	st      *ether.Station
	ep      *pup.Endpoint
}

func newRig(t *testing.T, shards, replicas, workers int, rec func(string) *trace.Recorder) *rig {
	t.Helper()
	wire := ether.New(nil)
	c, err := New(Config{
		Shards:   shards,
		Replicas: replicas,
		Wire:     wire,
		Geometry: testGeometry(),
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := wire.Attach(ClientAddrBase)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	st.SetClock(clock)
	if rec != nil {
		st.SetRecorder(rec("client"))
	}
	return &rig{t: t, workers: workers, wire: wire, c: c, clock: clock, st: st,
		ep: pup.NewEndpoint(st, pup.Config{})}
}

// run is one engine run. program runs on self's machine, or on the client
// machine when self is nil. Every other replica is a daemon running what
// daemon returns for it (ServeProgram when daemon is nil); a nil program
// leaves the replica out of the run.
func (rg *rig) run(self *Replica, program func(*fleet.Machine) error, daemon func(*Replica) func(*fleet.Machine) error) error {
	eng := fleet.New(fleet.Workers(rg.workers), fleet.Medium(rg.wire))
	for _, r := range rg.c.Replicas {
		if r == self {
			continue
		}
		p := r.ServeProgram()
		if daemon != nil {
			p = daemon(r)
		}
		if p == nil {
			continue
		}
		if err := eng.Add(fleet.MachineConfig{Name: r.Name(), Clock: r.Clock(), Stations: r.Stations(), Daemon: true, Program: p}); err != nil {
			return err
		}
	}
	main := fleet.MachineConfig{Name: "client", Clock: rg.clock, Station: rg.st, Program: program}
	if self != nil {
		main = fleet.MachineConfig{Name: self.Name(), Clock: self.Clock(), Stations: self.Stations(), Program: program}
	}
	if err := eng.Add(main); err != nil {
		return err
	}
	return eng.Run()
}

// store writes data under name through the cluster from the client
// machine, bypassing the replicas skip names (nil: none). The client closes
// every session it dialed before its program returns: a session left open
// would find its server gone at the next run.
func (rg *rig) store(name string, data []byte, skip func(shard, replica int) bool) {
	rg.t.Helper()
	err := rg.run(nil, func(m *fleet.Machine) error {
		cl := NewClient(rg.c.Place, rg.ep)
		cl.SetSkip(skip)
		err := cl.Store(name, data, func(fc *fileserver.Client) error {
			if err := fleet.PollUntil(m.Sync, m.Idle, fc.Poll, fc.Done); err != nil {
				return err
			}
			_, err := fc.Result()
			return err
		})
		for _, fc := range cl.Close() {
			closed := func() bool { return fc.Conn().State() == pup.StateClosed }
			if err := fleet.PollUntil(m.Sync, m.Idle, fc.Poll, closed); err != nil {
				return err
			}
		}
		return err
	}, nil)
	if err != nil {
		rg.t.Fatal(err)
	}
}

// auditWith runs one round on r while the other replicas run what daemon
// returns (see run).
func (rg *rig) auditWith(r *Replica, daemon func(*Replica) func(*fleet.Machine) error) AuditOutcome {
	rg.t.Helper()
	var out AuditOutcome
	err := rg.run(r, func(m *fleet.Machine) error {
		var err error
		out, err = r.AuditRound(m.Sync, m.Idle)
		return err
	}, daemon)
	if err != nil {
		rg.t.Fatal(err)
	}
	return out
}

// audit runs one round on r while the rest of the cluster serves.
func (rg *rig) audit(r *Replica) AuditOutcome {
	rg.t.Helper()
	return rg.auditWith(r, nil)
}

// silentAfter is a daemon that serves until quiet reports true and then
// falls silent: its transport still runs (it opens connections and acks
// requests), but its server never serves a session again.
func silentAfter(r *Replica, quiet func() bool) func(*fleet.Machine) error {
	return func(m *fleet.Machine) error {
		return fleet.PollUntil(m.Sync, m.Idle, func() (bool, error) {
			if quiet() {
				return r.Server().Endpoint().Poll()
			}
			return r.Poll()
		}, m.Draining)
	}
}

// payload builds deterministic non-periodic content. (A pattern that repeats
// every 256 bytes would fold to a zero page CRC under the drive's rotate-xor
// checksum — a degenerate payload no real file exhibits on purpose.)
func payload(seed, n int) []byte {
	data := make([]byte, n)
	x := uint32(seed)*2654435761 + 12345
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	return data
}

// pageVDA locates one page of a stored file on a replica's pack.
func pageVDA(t *testing.T, r *Replica, name string, pn disk.Word) disk.VDA {
	t.Helper()
	fn, err := dir.ResolveName(r.FS(), name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := r.FS().Open(fn)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := f.PageAddr(pn)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// verifyAll asserts every replica of the file's shard holds exactly want.
func (rg *rig) verifyAll(name string, want []byte) {
	rg.t.Helper()
	shard := rg.c.Place.Shard(name)
	for _, r := range rg.c.Replicas {
		if r.Shard != shard {
			continue
		}
		got, err := ReadLocal(r.FS(), name)
		if err != nil {
			rg.t.Fatalf("%s: %v", r.Name(), err)
		}
		if !bytes.Equal(got, want) {
			rg.t.Fatalf("%s: %q differs: got %d bytes, want %d", r.Name(), name, len(got), len(want))
		}
	}
}

// TestAuditHealsRot injects single-sector damage on an idle replica — bit
// flips on one run, a full value zap on another — and demands the victim's
// own audit round detect the divergence and heal from a peer.
func TestAuditHealsRot(t *testing.T) {
	for _, tc := range []struct {
		name string
		hit  func(r *Replica, addr disk.VDA)
	}{
		{"corrupt", func(r *Replica, addr disk.VDA) { r.Drive().CorruptValue(addr, sim.NewRand(7)) }},
		{"zap", func(r *Replica, addr disk.VDA) { r.Drive().ZapValue(addr, [disk.PageWords]disk.Word{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rg := newRig(t, 1, 3, 1, nil)
			data := payload(3, 2*disk.PageBytes+41)
			rg.store("notes", data, nil)
			victim := rg.c.Replicas[1]
			tc.hit(victim, pageVDA(t, victim, "notes", 2))

			out := rg.audit(victim)
			if out.Divergent != 1 {
				t.Fatalf("divergent = %d, want 1", out.Divergent)
			}
			if out.Healed != 1 {
				t.Fatalf("healed = %d, want 1", out.Healed)
			}
			rg.verifyAll("notes", data)
			if out := rg.audit(victim); out.Divergent != 0 {
				t.Fatalf("round after heal still divergent: %d", out.Divergent)
			}
			// The healthy replicas see a clean group too.
			if out := rg.audit(rg.c.Replicas[0]); out.Divergent != 0 || out.Healed != 0 {
				t.Fatalf("healthy replica saw %+v", out)
			}
		})
	}
}

// TestAuditHealsDivergentStore makes one replica miss an overwrite — the
// client wrote through the group with the victim skipped — and demands the
// vote pick the newer content even at a one-against-one dead heat (the
// write-stamp tie-break), healing the stale copy.
func TestAuditHealsDivergentStore(t *testing.T) {
	rg := newRig(t, 1, 2, 1, nil)
	rg.store("doc", payload(1, disk.PageBytes+100), nil)
	// Let simulated time pass so the overwrite's stamp is strictly newer.
	rg.clock.Advance(50 * time.Millisecond)
	next := payload(2, disk.PageBytes+350)
	rg.store("doc", next, func(shard, replica int) bool { return replica == 1 })

	// The up-to-date replica detects the divergence but must not touch its
	// own copy: it won the vote.
	if out := rg.audit(rg.c.Replicas[0]); out.Divergent != 1 || out.Healed != 0 {
		t.Fatalf("fresh replica saw %+v, want 1 divergent, 0 healed", out)
	}
	// The stale replica loses the tie on the write stamp and heals.
	out := rg.audit(rg.c.Replicas[1])
	if out.Divergent != 1 || out.Healed != 1 {
		t.Fatalf("stale replica saw %+v, want 1 divergent, 1 healed", out)
	}
	rg.verifyAll("doc", next)
	if out := rg.audit(rg.c.Replicas[1]); out.Divergent != 0 {
		t.Fatalf("round after heal still divergent: %d", out.Divergent)
	}
}

// TestAuditMissingCopyHealed: a file stored while a replica was skipped
// entirely appears on the group's next audit — present copies win, the
// absent replica fetches it fresh.
func TestAuditMissingCopyHealed(t *testing.T) {
	rg := newRig(t, 1, 3, 1, nil)
	data := payload(9, 3*disk.PageBytes+17)
	rg.store("memo", data, func(shard, replica int) bool { return replica == 2 })
	out := rg.audit(rg.c.Replicas[2])
	if out.Divergent != 1 || out.Healed != 1 {
		t.Fatalf("absent replica saw %+v, want 1 divergent, 1 healed", out)
	}
	rg.verifyAll("memo", data)
}

// snapshot flattens a recorder set into one comparable string.
func snapshot(recs map[string]*trace.Recorder, names []string) string {
	var buf bytes.Buffer
	for _, name := range names {
		rec := recs[name]
		fmt.Fprintf(&buf, "== %s\n", name)
		for _, ev := range rec.Events() {
			fmt.Fprintf(&buf, "%d %d %d %q %d %d %d\n",
				ev.T, ev.Dur, ev.Kind, ev.Name, ev.A0, ev.A1, ev.Flow)
		}
		for _, c := range []string{"cluster.round", "cluster.divergence", "cluster.heal", "cluster.heal.bytes", "fs.digest"} {
			fmt.Fprintf(&buf, "%s=%d\n", c, rec.Counter(c))
		}
	}
	return buf.String()
}

// TestAuditRoundReplay replays a full audit-heal round — store, rot, audit
// on every replica — twice from scratch at engine widths 1 and 2 and
// demands byte-identical traces and counters from all four runs: the
// distributed Scavenger is as replayable as the local one.
func TestAuditRoundReplay(t *testing.T) {
	run := func(workers int) string {
		recs := map[string]*trace.Recorder{}
		var names []string
		rg := newRig(t, 1, 3, workers, func(name string) *trace.Recorder {
			if recs[name] == nil {
				recs[name] = trace.New(1 << 14)
				names = append(names, name)
			}
			return recs[name]
		})
		data := payload(5, 2*disk.PageBytes+200)
		rg.store("ledger", data, nil)
		victim := rg.c.Replicas[2]
		victim.Drive().CorruptValue(pageVDA(t, victim, "ledger", 1), sim.NewRand(11))
		for _, r := range rg.c.Replicas {
			rg.audit(r)
		}
		rg.verifyAll("ledger", data)
		return snapshot(recs, names)
	}
	a := run(1)
	if len(a) == 0 {
		t.Fatal("empty snapshot")
	}
	for i, workers := range []int{1, 2, 2} {
		if b := run(workers); b != a {
			t.Fatalf("audit-heal round not replayable: run %d at workers %d differs from the first at workers 1:\nfirst:\n%s\nthis:\n%s", i+2, workers, a, b)
		}
	}
}

// TestAuditGivesUpOnSilentPeer audits against a peer whose server is never
// polled: its transport acks the digest request, so no timer is left on the
// auditor's side, but no reply ever comes. The requester's own deadline must
// end the call, and the round must return with that peer unreachable; a
// wait that parked with no wake would end the run in fleet.ErrStalled.
func TestAuditGivesUpOnSilentPeer(t *testing.T) {
	rg := newRig(t, 1, 3, 1, nil)
	rg.store("log", payload(4, disk.PageBytes+9), nil)
	auditor, silent := rg.c.Replicas[0], rg.c.Replicas[2]
	start := auditor.Clock().Now()
	out := rg.auditWith(auditor, func(r *Replica) func(*fleet.Machine) error {
		if r == silent {
			return silentAfter(r, func() bool { return true })
		}
		return r.ServeProgram()
	})
	if out.Unreachable != 1 || out.Divergent != 0 || out.Healed != 0 {
		t.Fatalf("round saw %+v, want 1 unreachable, 0 divergent, 0 healed", out)
	}
	cfg := auditor.audEp.Config()
	if budget, took := time.Duration(cfg.MaxRetries)*cfg.MaxRTO, auditor.Clock().Now()-start; took < budget {
		t.Fatalf("round ended after %v, before the %v budget ran out", took, budget)
	}
}

// TestAuditHealWithSilentAuthority lets the authority answer the digest poll
// and then fall silent, so the heal's fetch gets no reply. The round must
// return, counting the heal unreachable and leaving the file divergent; the
// next round, with the authority back, heals it.
func TestAuditHealWithSilentAuthority(t *testing.T) {
	rg := newRig(t, 1, 2, 1, nil)
	rg.store("doc", payload(1, 300), nil)
	rg.clock.Advance(50 * time.Millisecond)
	next := payload(2, disk.PageBytes+40)
	rg.store("doc", next, func(_, replica int) bool { return replica == 1 })

	authority, stale := rg.c.Replicas[0], rg.c.Replicas[1]
	digests := authority.Server().Stats().Digests
	out := rg.auditWith(stale, func(r *Replica) func(*fleet.Machine) error {
		return silentAfter(r, func() bool { return authority.Server().Stats().Digests > digests })
	})
	if out.Divergent != 1 || out.Healed != 0 || out.Unreachable != 1 {
		t.Fatalf("round saw %+v, want 1 divergent, 0 healed, 1 unreachable", out)
	}
	if out := rg.audit(stale); out.Divergent != 1 || out.Healed != 1 {
		t.Fatalf("retry round saw %+v, want 1 divergent, 1 healed", out)
	}
	rg.verifyAll("doc", next)
}

// TestAwaitClosedChecksBeforeParking closes a connection to a peer that
// never answers: the peer is left out of the run. The close ends by
// exhausting its retries inside a poll, which requests no wake; the loop
// must see the closed state before it idles, or the machine would park
// forever and the run would end in fleet.ErrStalled.
func TestAwaitClosedChecksBeforeParking(t *testing.T) {
	rg := newRig(t, 1, 2, 1, nil)
	r, peer := rg.c.Replicas[0], rg.c.Replicas[1]
	cl := fileserver.NewClient(r.audEp)
	err := rg.run(r, func(m *fleet.Machine) error {
		if err := cl.Connect(rg.c.Place.ServerAddr(peer.Shard, peer.Index)); err != nil {
			return err
		}
		if err := cl.Close(); err != nil {
			return err
		}
		r.awaitClosed(cl, m.Sync, m.Idle)
		return nil
	}, func(*Replica) func(*fleet.Machine) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(cl.Conn().Err(), pup.ErrRetriesExhausted) {
		t.Fatalf("conn error = %v, want retries exhausted", cl.Conn().Err())
	}
}
