package main

// cluster-audit: E15's replicated file service run for several epochs. Each
// epoch clients write through the shard groups (even clients silently skip
// one replica on their overwrites), then read everything back; seeded rot
// strikes one replica per shard; then the replicas audit each other until a
// whole cycle of audit rounds finds nothing divergent. Digest scans read
// every page of every file while heals write, so a change that helps writes
// at the audit's expense shows here. Its replicas carry two stations each.

import (
	"bytes"
	"fmt"
	"time"

	"altoos/internal/cluster"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

var clusterWorkload = &workload{
	name:    "cluster-audit",
	workers: 2,
	setup:   setupCluster,
}

const (
	clusterShards     = 4
	clusterReplicas   = 3
	clusterFiles      = 3
	clusterOverwrites = 2
	clusterRotSectors = 2
	auditMaxCycles    = 8
	auditFallbackWake = time.Second
	clusterMinPayload = 200
	clusterMaxPayload = 720
)

// clusterGeometry is each replica's pack: Diablo31 timing on 14 cylinders.
func clusterGeometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/14"
	g.Cylinders = 14
	return g
}

func clusterName(i, f int) string { return fmt.Sprintf("c%02d.f%d", i, f) }

// clusterClient is one client machine and what it last wrote.
type clusterClient struct {
	m    *machine
	st   *ether.Station
	rnd  *sim.Rand
	want [clusterFiles][]byte
	last [clusterFiles]int // op ID of each file's latest write
}

// clusterRig is the built cluster and its clients.
type clusterRig struct {
	e       *env
	c       *cluster.Cluster
	wire    *ether.Network
	reps    []*machine // replica machines, in c.Replicas order
	clients []*clusterClient
}

func setupCluster(e *env) (func() error, error) {
	clients, epochs := 24, 12
	if e.smoke {
		clients, epochs = 4, 2
	}
	rig := &clusterRig{e: e, wire: ether.New(nil)}
	rig.wire.InjectFaults(ether.FaultConfig{Seed: mix(e.seed, 1), Drop: ether.Rate{Num: 1, Den: 10}})
	c, err := cluster.New(cluster.Config{
		Shards:   clusterShards,
		Replicas: clusterReplicas,
		Wire:     rig.wire,
		Geometry: clusterGeometry(),
		// The auditor's budget need only outlast a peer's pack scan; a
		// connection whose open acknowledgement was lost cannot close
		// gracefully and waits out the whole budget, so it is kept small.
		AuditPup: pup.Config{MaxRTO: time.Second, MaxRetries: 20, Seed: mix(e.seed, 5)},
		Recorder: func(name string) *trace.Recorder {
			m := e.newMachine(name, nil)
			rig.reps = append(rig.reps, m)
			return m.rec
		},
	})
	if err != nil {
		return nil, err
	}
	rig.c = c
	for k, r := range c.Replicas {
		rig.reps[k].clock = r.Clock()
	}
	for i := 0; i < clients; i++ {
		m := e.newMachine(fmt.Sprintf("client%02d", i), sim.NewClock())
		st, err := rig.wire.Attach(cluster.ClientAddrBase + ether.Addr(i))
		if err != nil {
			return nil, err
		}
		st.SetClock(m.clock)
		st.SetRecorder(m.rec)
		cl := &clusterClient{m: m, st: st, rnd: sim.NewRand(mix(e.seed, uint64(3000+i)))}
		for f := range cl.want {
			cl.want[f] = make([]byte, 0, clusterMaxPayload)
		}
		rig.clients = append(rig.clients, cl)
	}

	// Prime: every file exists on every replica before timing starts.
	err = rig.load(0, false, func(m *fleet.Machine, _, i int, c *clusterClient, cl *cluster.Client) error {
		for f := range c.want {
			c.want[f] = c.want[f][:clusterMinPayload+c.rnd.Intn(clusterMaxPayload-clusterMinPayload+1)]
			fill(c.rnd, c.want[f])
			if err := cl.Store(clusterName(i, f), c.want[f], func(fc *fileserver.Client) error { return await(m, nil, fc) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	e.ops.init(epochs * clients * (2*clusterFiles + clusterOverwrites))

	timed := func() error {
		for ep := 0; ep < epochs; ep++ {
			if err := rig.epoch(ep); err != nil {
				return fmt.Errorf("epoch %d: %w", ep, err)
			}
		}
		return nil
	}
	return timed, nil
}

// epoch runs one load phase, one rot strike and one audit phase, then checks
// every replica's copy of every file.
func (rig *clusterRig) epoch(ep int) error {
	e := rig.e
	// Every epoch starts with every replica freshly rebooted. A session
	// whose open acknowledgement was lost cannot close gracefully, so the
	// server side of it stays open forever; left to pile up across epochs,
	// such sessions grow likely to share a connection ID with a new dial from
	// the same peer, whose request the stale session then takes for a
	// duplicate and never answers.
	for _, r := range rig.c.Replicas {
		if err := r.Reboot(); err != nil {
			return err
		}
	}
	if err := rig.load(ep+1, true, rig.clientEpoch); err != nil {
		return fmt.Errorf("load: %w", err)
	}

	// Rot strikes user-data sectors only, so every file still opens.
	rnd := sim.NewRand(mix(e.seed, uint64(6000+ep)))
	for s := 0; s < clusterShards; s++ {
		victim := rig.c.Replicas[s*clusterReplicas+rnd.Intn(clusterReplicas)]
		struck := victim.Drive().Rot(rnd, clusterRotSectors, func(l disk.Label) bool {
			return !l.FID.IsDirectory() && l.FID >= disk.FirstUserFID && l.PageNum >= 1
		})
		if err := keepVisible(victim.Drive(), struck); err != nil {
			return err
		}
	}

	before := e.simNow()
	if err := rig.audit(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	e.auditSim += e.simNow() - before

	// Every replica of every shard must now hold each file's latest write.
	for i, c := range rig.clients {
		for f := range c.want {
			name := clusterName(i, f)
			shard := rig.c.Place.Shard(name)
			for idx := 0; idx < clusterReplicas; idx++ {
				got, err := cluster.ReadLocal(rig.c.Replicas[shard*clusterReplicas+idx].FS(), name)
				if err != nil || !bytes.Equal(got, c.want[f]) {
					e.ops.fail(c.last[f])
				}
			}
		}
	}
	return nil
}

// keepVisible makes sure the drive's own checksum sees every struck sector.
// Rot flips eight bits, and about one sector in eight hundred ends with a
// value whose 16-bit rotate-xor fold equals the old one: damage the audit
// cannot see by construction. One more flipped bit, which the fold always
// sees, turns such a strike into one it can.
func keepVisible(drv *disk.Drive, struck []disk.VDA) error {
	var v [disk.PageWords]disk.Word
	for _, a := range struck {
		lbl, _ := drv.PeekLabel(a)
		op := disk.Op{Addr: a, Label: disk.Check, LabelData: &lbl, Value: disk.Read, ValueData: &v}
		if err := drv.Do(&op); err != nil {
			return fmt.Errorf("read rotted sector %d: %w", a, err)
		}
		if rec, _ := drv.PeekVCRC(a); disk.ValueCRC(v[:]) == rec {
			v[0] ^= 1
			drv.ZapValue(a, v)
		}
	}
	return nil
}

// load runs one load phase: every replica serves while every client runs
// body over a fresh endpoint, then closes the sessions it dialed. phase
// numbers the load phases of a pass, the prime being 0.
func (rig *clusterRig) load(phase int, timed bool, body func(m *fleet.Machine, phase, i int, c *clusterClient, cl *cluster.Client) error) error {
	e := rig.e
	e.syncClocks()
	eng := fleet.New(fleet.Workers(e.workers), fleet.Medium(rig.wire))
	for k, r := range rig.c.Replicas {
		t := rig.reps[k].tr
		if !timed {
			t = nil
		}
		eng.Add(fleet.MachineConfig{
			Name:     r.Name(),
			Clock:    r.Clock(),
			Stations: r.Stations(),
			Daemon:   true,
			StartAt:  r.Clock().Now(),
			Program:  serve(t, r.Poll),
		})
	}
	for i, c := range rig.clients {
		i, c := i, c
		t := c.m.tr
		if !timed {
			t = nil
		}
		eng.Add(fleet.MachineConfig{
			Name:    c.m.name,
			Clock:   c.m.clock,
			Station: c.st,
			StartAt: c.m.clock.Now(),
			Program: t.program(func(m *fleet.Machine) error {
				cl := cluster.NewClient(rig.c.Place, pup.NewEndpoint(c.st, pup.Config{
					Seed:   mix(e.seed, uint64(7000+phase*len(rig.clients)+i)),
					MaxRTO: time.Second,
					// Enough to wait out a replica serving every other client;
					// see AuditPup for why the budget is not larger.
					MaxRetries: 60,
				}))
				if err := body(m, phase, i, c, cl); err != nil {
					return err
				}
				t.setOp(-1)
				for _, fc := range cl.Close() {
					if err := awaitClosed(m, t, fc); err != nil {
						return err
					}
				}
				return nil
			}),
		})
	}
	return e.runEngine(eng, timed)
}

// clientEpoch is one client's timed load: store every file, overwrite some,
// read every file back.
func (rig *clusterRig) clientEpoch(m *fleet.Machine, phase, i int, c *clusterClient, cl *cluster.Client) error {
	e, t := rig.e, c.m.tr
	wait := func(fc *fileserver.Client) error { return await(m, t, fc) }
	id := ((phase-1)*len(rig.clients) + i) * (2*clusterFiles + clusterOverwrites)
	store := func(f int) error {
		data := c.want[f][:clusterMinPayload+c.rnd.Intn(clusterMaxPayload-clusterMinPayload+1)]
		fill(c.rnd, data)
		c.want[f] = data
		t.setOp(id)
		start := c.m.clock.Now()
		s := t.begin(spClusterStor)
		err := cl.Store(clusterName(i, f), data, wait)
		t.end(s)
		if err != nil {
			return err
		}
		e.ops.done(id, c.m.clock.Now()-start, true)
		c.last[f] = id
		id++
		return nil
	}
	for f := 0; f < clusterFiles; f++ {
		if err := store(f); err != nil {
			return err
		}
	}
	for f := 0; f < clusterOverwrites; f++ {
		if i%2 == 0 {
			// The divergent store skips one replica, never the one the client
			// library reads this name from first (Client.Fetch starts at
			// Shard(name+"#read") mod Replicas), so the client's own read-back
			// stays fresh and only the audit can find the stale copy.
			read := rig.c.Place.Shard(clusterName(i, f)+"#read") % clusterReplicas
			skip := (read + 1 + c.rnd.Intn(clusterReplicas-1)) % clusterReplicas
			cl.SetSkip(func(_, replica int) bool { return replica == skip })
		}
		err := store(f)
		cl.SetSkip(nil)
		if err != nil {
			return err
		}
	}
	for f := 0; f < clusterFiles; f++ {
		t.setOp(id)
		start := c.m.clock.Now()
		s := t.begin(spClusterFet)
		got, err := cl.Fetch(clusterName(i, f), wait)
		t.end(s)
		if err != nil {
			return err
		}
		e.ops.done(id, c.m.clock.Now()-start, bytes.Equal(got, c.want[f]))
		id++
	}
	return nil
}

// audit runs the peer audit to quiescence in turns: one replica runs an
// audit round while every other replica serves, round robin, until a whole
// cycle finds nothing divergent. Every turn starts at the fleet's present.
//
// Turns, not every replica auditing at once: a replica serving a digest
// request scans its whole pack inside one poll, and a peer that must wait
// out a scan of its own before it can acknowledge a reply leaves the
// server's retransmission budget (the transport's default, about a second
// of backoff) spent and the reply abandoned, with the requester waiting on
// it forever. Run concurrently, most seeds of this workload end that way.
func (rig *clusterRig) audit() error {
	e := rig.e
	for cycle := 0; cycle < auditMaxCycles; cycle++ {
		divergent := 0
		for g, r := range rig.c.Replicas {
			e.syncClocks()
			eng := fleet.New(fleet.Workers(e.workers), fleet.Medium(rig.wire))
			for h, q := range rig.c.Replicas {
				cfg := fleet.MachineConfig{Name: q.Name(), Clock: q.Clock(), Stations: q.Stations(), StartAt: q.Clock().Now()}
				if h == g {
					cfg.Program = auditTurn(rig.reps[h], q, &divergent)
				} else {
					cfg.Daemon, cfg.Program = true, serve(rig.reps[h].tr, q.Poll)
				}
				eng.Add(cfg)
			}
			if err := e.runEngine(eng, true); err != nil {
				return fmt.Errorf("%s turn: %w", r.Name(), err)
			}
		}
		if divergent == 0 {
			return nil
		}
	}
	return fmt.Errorf("still divergent after %d cycles", auditMaxCycles)
}

// auditTurn is one replica's audit turn: a single round against its shard
// group, adding the files it found divergent to *divergent.
func auditTurn(rm *machine, r *cluster.Replica, divergent *int) func(*fleet.Machine) error {
	t := rm.tr
	return t.program(func(m *fleet.Machine) error {
		start := r.Clock().Now()
		s := t.begin(spAuditRound)
		out, err := r.AuditRound(func() { t.sync(m) }, func() {
			// AuditRound's close handshake checks for a closed connection
			// only before it polls, so a close that ends by exhausting its
			// retries (it requests no wake) would park the replica forever.
			// A fallback wake lets it look again; an arrival or a timer due
			// sooner still wakes it first.
			if _, ok := r.Clock().NextWake(); !ok {
				r.Clock().RequestWake(r.Clock().Now() + auditFallbackWake)
			}
			t.idle(m)
		})
		t.end(s)
		if err != nil {
			return err
		}
		rm.auditSim = append(rm.auditSim, r.Clock().Now()-start)
		*divergent += out.Divergent
		return nil
	})
}
