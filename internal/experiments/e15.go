package experiments

// E15 is the cluster experiment: a 4-shard × 3-replica file service — twelve
// fileserver machines under the windowed fleet engine — takes hundreds of
// client store sessions over a wire losing 10% of its packets, while two
// kinds of silent damage are manufactured on purpose: replicas that missed an
// overwrite (the client skipped them mid-group-write) and seeded bit-rot
// struck onto idle packs between phases. Then every replica runs the
// distributed Scavenger — the peer-audit daemon of internal/cluster — until
// the whole fleet goes quiet. The claim under test: every divergence is
// detected and healed with zero files lost and zero bytes corrupted, and the
// entire two-phase schedule is byte-identical across runs and worker widths.

import (
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

const (
	// e15Shards × e15Replicas is the cluster: the headline config from the
	// issue, twelve storage machines.
	e15Shards   = 4
	e15Replicas = 3
	// e15Clients is the default client-machine count; each runs several
	// group stores, so sessions = clients × stores × replicas.
	e15Clients = 24
	// e15Files is how many files each client stores; e15Overwrites of them
	// are then overwritten (even-numbered clients skip one replica while
	// doing so — the manufactured divergent store).
	e15Files      = 3
	e15Overwrites = 2
	// e15RotSectors is how many user-data sectors rot on each shard's
	// designated victim replica between the load and audit phases.
	e15RotSectors = 2
	// e15BootStagger separates client boot wakes; e15AuditStagger separates
	// the replicas' first audit deadlines so rounds interleave.
	e15BootStagger  = 160 * time.Nanosecond
	e15AuditStagger = 250 * time.Microsecond
	// E15WireSeed seeds the wire's fault draws in the published run. The
	// claim must hold on any seed; make cluster-seeds sweeps a range.
	E15WireSeed = 15
)

// e15Geometry is each replica's pack: real Diablo31 arm timing on a short
// cylinder stack.
func e15Geometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/14"
	g.Cylinders = 14
	return g
}

// e15Payload builds deterministic non-periodic content for client i's file f
// at version v. (A byte pattern with a 256-byte period folds to a zero page
// CRC under the drive's rotate-xor checksum and would hide from the audit
// digests, so the generator is a word-mixing LCG.)
func e15Payload(i, f, v int) []byte {
	n := 200 + ((i*7+f*3+v)%5)*130
	data := make([]byte, n)
	x := uint32(i*131071+f*8191+v*127) * 2654435761
	for j := range data {
		x = x*1664525 + 1013904223
		data[j] = byte(x >> 24)
	}
	return data
}

// e15Name is client i's file f on the cluster namespace.
func e15Name(i, f int) string { return fmt.Sprintf("c%02d.f%d", i, f) }

// e15ClusterAudit is the registry entry: the experiment at its default
// scale on the published wire seed.
func e15ClusterAudit(workers int, machine func(string) *trace.Recorder) (*Result, error) {
	return E15Cluster(e15Clients, workers, E15WireSeed, machine)
}

// E15Cluster runs the two-phase cluster experiment: a load phase (clients
// store and divergently overwrite through the shard groups), seeded rot
// struck between phases, then an audit phase (every replica a scavenging
// daemon) that must drain only when the whole fleet has gone quiet. wireSeed
// seeds the wire's fault draws (E15WireSeed in the published run). machine
// maps a machine name to its trace recorder; nil gives every machine a small
// private recorder (counters only). Every reported metric is a function of
// the schedule alone.
func E15Cluster(clients, workers int, wireSeed uint64, machine func(string) *trace.Recorder) (*Result, error) {
	if clients < 1 {
		return nil, fmt.Errorf("e15: need at least 1 client machine, got %d", clients)
	}
	recs := newRecorders(machine)

	// One wire for both phases, losing a tenth of everything on it.
	wire := ether.New(nil)
	wire.InjectFaults(ether.FaultConfig{
		Seed: wireSeed,
		Drop: ether.Rate{Num: 1, Den: 10},
	})

	// The cluster: per-replica clocks, generous audit transport budgets —
	// at 10% loss a digest poll can take many retries and still must not
	// be mistaken for an unreachable peer.
	c, err := cluster.New(cluster.Config{
		Shards:   e15Shards,
		Replicas: e15Replicas,
		Wire:     wire,
		Geometry: e15Geometry(),
		AuditPup: pup.Config{
			MaxRTO:     time.Second,
			MaxRetries: 300,
		},
		Recorder: recs.get,
	})
	if err != nil {
		return nil, err
	}

	// Expected end-state of the namespace: every stored file at its final
	// version, byte for byte, on every replica of its shard.
	want := map[string][]byte{}
	for i := 0; i < clients; i++ {
		for f := 0; f < e15Files; f++ {
			v := 1
			if f < e15Overwrites {
				v = 2
			}
			want[e15Name(i, f)] = e15Payload(i, f, v)
		}
	}

	// ---- Phase 1: the load. Replicas serve; clients write through shards.
	eng1 := fleet.New(fleet.Workers(workers), fleet.Medium(wire))
	for _, r := range c.Replicas {
		r := r
		if err := eng1.Add(fleet.MachineConfig{
			Name:     r.Name(),
			Clock:    r.Clock(),
			Stations: r.Stations(),
			Daemon:   true,
			Program:  r.ServeProgram(),
		}); err != nil {
			return nil, err
		}
	}
	sessions := 0
	for i := 0; i < clients; i++ {
		i := i
		clk := sim.NewClock()
		st, err := wire.Attach(cluster.ClientAddrBase + ether.Addr(i))
		if err != nil {
			return nil, err
		}
		st.SetClock(clk)
		st.SetRecorder(recs.get(fmt.Sprintf("client%02d", i)))
		sessions += (e15Files + e15Overwrites) * e15Replicas
		if err := eng1.Add(fleet.MachineConfig{
			Name:    fmt.Sprintf("client%02d", i),
			Clock:   clk,
			Station: st,
			StartAt: time.Duration(i+1) * e15BootStagger,
			Program: func(m *fleet.Machine) error {
				cl := cluster.NewClient(c.Place, pup.NewEndpoint(st, pup.Config{
					Seed:       uint64(i) + 100,
					MaxRTO:     time.Second,
					MaxRetries: 300,
				}))
				wait := func(fc *fileserver.Client) error { return awaitTransfer(m, fc) }
				for f := 0; f < e15Files; f++ {
					if err := cl.Store(e15Name(i, f), e15Payload(i, f, 1), wait); err != nil {
						return fmt.Errorf("client%02d: %w", i, err)
					}
				}
				for f := 0; f < e15Overwrites; f++ {
					if i%2 == 0 {
						// The divergent store: this overwrite silently skips
						// one replica, which keeps serving version 1 until
						// the audit phase catches it.
						skip := (i/2 + f) % e15Replicas
						cl.SetSkip(func(_, replica int) bool { return replica == skip })
					}
					if err := cl.Store(e15Name(i, f), e15Payload(i, f, 2), wait); err != nil {
						return fmt.Errorf("client%02d overwrite: %w", i, err)
					}
					cl.SetSkip(nil)
				}
				// Graceful goodbye on every dialed session, so phase 1
				// drains with no connection state left ticking anywhere.
				for _, fc := range cl.Close() {
					if err := awaitClosed(m, fc); err != nil {
						return err
					}
				}
				return nil
			},
		}); err != nil {
			return nil, err
		}
	}
	if err := eng1.Run(); err != nil {
		return nil, fmt.Errorf("e15 load phase: %w", err)
	}

	// ---- Between phases: rot strikes one victim replica per shard, on
	// user-data sectors only (leaders stay sound so every file still opens).
	rotted := 0
	for s := 0; s < e15Shards; s++ {
		victim := c.Replicas[s*e15Replicas+s%e15Replicas]
		struck := victim.Drive().Rot(sim.NewRand(uint64(1500+s)), e15RotSectors,
			func(lbl disk.Label) bool {
				return !lbl.FID.IsDirectory() && lbl.FID >= disk.FirstUserFID && lbl.PageNum >= 1
			})
		rotted += len(struck)
	}
	if rotted == 0 {
		return nil, fmt.Errorf("e15: rot struck no sectors; nothing to audit")
	}

	// ---- Phase 2: the audit. Every replica is a scavenging daemon; the
	// fleet drains only when every one of them has seen quiet clean rounds —
	// i.e. when every divergence this experiment manufactured is healed.
	eng2 := fleet.New(fleet.Workers(workers), fleet.Medium(wire))
	for g, r := range c.Replicas {
		r := r
		startAt := r.Clock().Now() + 10*time.Millisecond + time.Duration(g)*e15AuditStagger
		if err := eng2.Add(fleet.MachineConfig{
			Name:     r.Name(),
			Clock:    r.Clock(),
			Stations: r.Stations(),
			Daemon:   true,
			StartAt:  startAt,
			Program:  r.AuditProgram(startAt),
		}); err != nil {
			return nil, err
		}
	}
	if err := eng2.Run(); err != nil {
		return nil, fmt.Errorf("e15 audit phase: %w", err)
	}

	// The run ends with the audit phase. The offline check below reads
	// every pack through the replicas' drives, which charges their clocks,
	// so the end time is read first.
	var simEnd time.Duration
	maxHealRound := 0
	for _, r := range c.Replicas {
		if t := r.Clock().Now(); t > simEnd {
			simEnd = t
		}
		if hr := r.LastHealRound(); hr > maxHealRound {
			maxHealRound = hr
		}
	}

	// ---- Offline verification, straight off every pack: the replicated
	// namespace must hold every file at its final version everywhere.
	filesLost, bytesCorrupted := 0, 0
	for i := 0; i < clients; i++ {
		for f := 0; f < e15Files; f++ {
			name := e15Name(i, f)
			shard := c.Place.Shard(name)
			data := want[name]
			for idx := 0; idx < e15Replicas; idx++ {
				r := c.Replicas[shard*e15Replicas+idx]
				got, err := cluster.ReadLocal(r.FS(), name)
				if err != nil {
					filesLost++
					continue
				}
				if len(got) != len(data) {
					bytesCorrupted += len(data)
					continue
				}
				for j := range got {
					if got[j] != data[j] {
						bytesCorrupted++
					}
				}
			}
		}
	}

	steps := eng1.Steps() + eng2.Steps()
	divergence := recs.counter("cluster.divergence")
	heals := recs.counter("cluster.heal")
	rounds := recs.counter("cluster.round")
	if divergence == 0 {
		return nil, fmt.Errorf("e15: no divergence detected despite %d rotted sectors and the skipped overwrites", rotted)
	}

	res := &Result{
		ID:    "E15",
		Title: "sharded cluster: replicated stores, rot, and the distributed Scavenger",
		Claim: "§3.5 across machines: replicas audit each other back to byte-identical packs",
	}
	res.add("cluster", "%d shards × %d replicas, %d client machines, %d-worker windowed schedule",
		e15Shards, e15Replicas, clients, workers)
	res.add("client sessions", "%d fileserver sessions at 10%% wire loss", sessions)
	res.add("manufactured damage", "%d rotted sectors + skipped overwrites on even clients", rotted)
	res.add("audit verdict", "%d divergent observations, %d heals over %d rounds", divergence, heals, rounds)
	res.add("end state", "%d files lost, %d bytes corrupted (want 0 / 0)", filesLost, bytesCorrupted)
	res.add("scheduler activations", "%d over %.3f s simulated", steps, simEnd.Seconds())
	res.metric("machines", float64(len(c.Replicas)+clients))
	res.metric("sessions", float64(sessions))
	res.metric("files_lost", float64(filesLost))
	res.metric("bytes_corrupted", float64(bytesCorrupted))
	res.metric("divergence_detected", float64(divergence))
	res.metric("heals", float64(heals))
	res.metric("audit_rounds_to_heal", float64(maxHealRound))
	res.metric("sim_seconds", simEnd.Seconds())
	res.metric("scheduler_steps", float64(steps))
	res.metric("retransmits", float64(recs.counter("pup.retransmit")))
	return res, nil
}
