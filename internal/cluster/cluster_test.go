package cluster

// Deterministic unit tests for the audit protocol, on a plain shared-clock
// rig (no fleet engine): scripted single-sector rot, a scripted divergent
// store (one replica missed an overwrite), and byte-identical replay of a
// full audit-heal round.

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

// rig is one hand-polled cluster: shared clock, perfect wire.
type rig struct {
	t     *testing.T
	clock *sim.Clock
	c     *Cluster
	cl    *Client
}

func newRig(t *testing.T, shards, replicas int, rec func(string) *trace.Recorder) *rig {
	t.Helper()
	clock := sim.NewClock()
	wire := ether.New(clock)
	c, err := New(Config{
		Shards:   shards,
		Replicas: replicas,
		Wire:     wire,
		Clock:    clock,
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
	if rec != nil {
		st.SetRecorder(rec("client"))
	}
	return &rig{t: t, clock: clock, c: c,
		cl: NewClient(c.Place, pup.NewEndpoint(st, pup.Config{}))}
}

// pump advances every replica one poll step.
func (rg *rig) pump() {
	for _, r := range rg.c.Replicas {
		if _, err := r.Poll(); err != nil {
			rg.t.Fatal(err)
		}
	}
}

// wait is the rig's WaitFunc: poll the transfer and every replica until done.
func (rg *rig) wait(fc *fileserver.Client) error {
	for i := 0; i < 1_000_000 && !fc.Done(); i++ {
		if _, err := fc.Poll(); err != nil {
			return err
		}
		rg.pump()
	}
	if !fc.Done() {
		rg.t.Fatal("transfer never completed")
	}
	_, err := fc.Result()
	return err
}

// audit runs one round on the given replica, pumping the rest of the rig
// while the round waits on the wire.
func (rg *rig) audit(r *Replica) AuditOutcome {
	rg.t.Helper()
	out, err := r.AuditRound(func() {}, rg.pump)
	if err != nil {
		rg.t.Fatal(err)
	}
	return out
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
			rg := newRig(t, 1, 3, nil)
			data := payload(3, 2*disk.PageBytes+41)
			if err := rg.cl.Store("notes", data, rg.wait); err != nil {
				t.Fatal(err)
			}
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
	rg := newRig(t, 1, 2, nil)
	old := payload(1, disk.PageBytes+100)
	if err := rg.cl.Store("doc", old, rg.wait); err != nil {
		t.Fatal(err)
	}
	// Let simulated time pass so the overwrite's stamp is strictly newer.
	rg.clock.Advance(50 * time.Millisecond)
	next := payload(2, disk.PageBytes+350)
	rg.cl.SetSkip(func(shard, replica int) bool { return replica == 1 })
	if err := rg.cl.Store("doc", next, rg.wait); err != nil {
		t.Fatal(err)
	}
	rg.cl.SetSkip(nil)

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
	rg := newRig(t, 1, 3, nil)
	data := payload(9, 3*disk.PageBytes+17)
	rg.cl.SetSkip(func(shard, replica int) bool { return replica == 2 })
	if err := rg.cl.Store("memo", data, rg.wait); err != nil {
		t.Fatal(err)
	}
	rg.cl.SetSkip(nil)
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
// on every replica — twice from scratch and demands byte-identical traces
// and counters: the distributed Scavenger is as replayable as the local one.
func TestAuditRoundReplay(t *testing.T) {
	run := func() string {
		recs := map[string]*trace.Recorder{}
		var names []string
		rg := newRig(t, 1, 3, func(name string) *trace.Recorder {
			if recs[name] == nil {
				recs[name] = trace.New(1 << 14)
				names = append(names, name)
			}
			return recs[name]
		})
		data := payload(5, 2*disk.PageBytes+200)
		if err := rg.cl.Store("ledger", data, rg.wait); err != nil {
			t.Fatal(err)
		}
		victim := rg.c.Replicas[2]
		victim.Drive().CorruptValue(pageVDA(t, victim, "ledger", 1), sim.NewRand(11))
		for _, r := range rg.c.Replicas {
			rg.audit(r)
		}
		rg.verifyAll("ledger", data)
		return snapshot(recs, names)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("audit-heal round not replayable:\nrun1:\n%s\nrun2:\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty snapshot")
	}
}

// parkIdle is an idle for an audit round on the plain rig that parks the way
// a fleet machine does: others runs the rest of the rig, and if that moved
// nothing the clock jumps to the earliest requested wake. A machine that
// parks with no wake requested and nothing arriving sleeps forever under the
// fleet, so here the test fails instead, as it does when the round spins
// through a million parks without returning.
func (rg *rig) parkIdle(others func() bool) func() {
	parks := 0
	return func() {
		if parks++; parks > 1_000_000 {
			rg.t.Fatal("the round never returned")
		}
		if others() {
			return
		}
		w, ok := rg.clock.NextWake()
		if !ok {
			rg.t.Fatal("parked with no wake requested: a fleet machine would sleep forever")
		}
		rg.clock.ClearWake()
		rg.clock.AdvanceTo(w)
	}
}

// pollExcept polls every replica but skip; a silent replica's transport
// still runs (it opens connections and acks requests), but its server never
// serves a session.
func (rg *rig) pollExcept(skip *Replica, silent func() bool) bool {
	worked := false
	for _, r := range rg.c.Replicas {
		var w bool
		var err error
		if r == skip && silent() {
			w, err = r.Server().Endpoint().Poll()
		} else {
			w, err = r.Poll()
		}
		if err != nil {
			rg.t.Fatal(err)
		}
		worked = worked || w
	}
	return worked
}

// TestAuditGivesUpOnSilentPeer audits against a peer whose server is never
// polled: its transport acks the digest request, so no timer is left on the
// auditor's side, but no reply ever comes. The requester's own deadline must
// end the call, and the round must return with that peer unreachable.
func TestAuditGivesUpOnSilentPeer(t *testing.T) {
	rg := newRig(t, 1, 3, nil)
	data := payload(4, disk.PageBytes+9)
	if err := rg.cl.Store("log", data, rg.wait); err != nil {
		t.Fatal(err)
	}
	auditor, silent := rg.c.Replicas[0], rg.c.Replicas[2]
	start := rg.clock.Now()
	out, err := auditor.AuditRound(func() {}, rg.parkIdle(func() bool {
		return rg.pollExcept(silent, func() bool { return true })
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Unreachable != 1 || out.Divergent != 0 || out.Healed != 0 {
		t.Fatalf("round saw %+v, want 1 unreachable, 0 divergent, 0 healed", out)
	}
	cfg := auditor.audEp.Config()
	if budget := time.Duration(cfg.MaxRetries) * cfg.MaxRTO; rg.clock.Now()-start < budget {
		t.Fatalf("round ended after %v, before the %v budget ran out", rg.clock.Now()-start, budget)
	}
}

// TestAuditHealWithSilentAuthority lets the authority answer the digest poll
// and then fall silent, so the heal's fetch gets no reply. The round must
// return, counting the heal unreachable and leaving the file divergent; the
// next round, with the authority back, heals it.
func TestAuditHealWithSilentAuthority(t *testing.T) {
	rg := newRig(t, 1, 2, nil)
	if err := rg.cl.Store("doc", payload(1, 300), rg.wait); err != nil {
		t.Fatal(err)
	}
	rg.clock.Advance(50 * time.Millisecond)
	next := payload(2, disk.PageBytes+40)
	rg.cl.SetSkip(func(_, replica int) bool { return replica == 1 })
	if err := rg.cl.Store("doc", next, rg.wait); err != nil {
		t.Fatal(err)
	}
	rg.cl.SetSkip(nil)

	authority, stale := rg.c.Replicas[0], rg.c.Replicas[1]
	digests := authority.Server().Stats().Digests
	out, err := stale.AuditRound(func() {}, rg.parkIdle(func() bool {
		return rg.pollExcept(authority, func() bool { return authority.Server().Stats().Digests > digests })
	}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Divergent != 1 || out.Healed != 0 || out.Unreachable != 1 {
		t.Fatalf("round saw %+v, want 1 divergent, 0 healed, 1 unreachable", out)
	}
	if out := rg.audit(stale); out.Divergent != 1 || out.Healed != 1 {
		t.Fatalf("retry round saw %+v, want 1 divergent, 1 healed", out)
	}
	rg.verifyAll("doc", next)
}

// TestAwaitClosedChecksBeforeParking closes a connection to a peer that
// never answers. The close ends by exhausting its retries inside a poll,
// which requests no wake; the loop must see the closed state before it
// idles, or a fleet machine would park forever.
func TestAwaitClosedChecksBeforeParking(t *testing.T) {
	rg := newRig(t, 1, 2, nil)
	r, peer := rg.c.Replicas[0], rg.c.Replicas[1]
	cl := fileserver.NewClient(r.audEp)
	if err := cl.Connect(rg.c.Place.ServerAddr(peer.Shard, peer.Index)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	r.awaitClosed(cl, func() {}, rg.parkIdle(func() bool { return false }))
	if !errors.Is(cl.Conn().Err(), pup.ErrRetriesExhausted) {
		t.Fatalf("conn error = %v, want retries exhausted", cl.Conn().Err())
	}
}
