// Package cluster is the sharded, replicated file service: N fileserver
// machines under internal/fleet, a deterministic placement map routing each
// file name to a shard replicated across consecutive machines, and — the
// ambitious part — a peer-audit daemon on every replica, the distributed
// descendant of §3.5's Scavenger. During idle rotations a replica polls its
// shard peers over pup for per-file digests (built on the drive's per-sector
// value checksums), detects silent divergence or bit-rot, and heals its own
// copy by fetching the good one from a peer, LOCKSS-style: no master, no
// repair coordinator, just every copy continuously voting on every other.
//
// Everything is deterministic under the fleet engine's windowed schedule —
// audit rounds, repairs and heals land at byte-identical simulated times
// across runs and worker widths, and every round and heal is a traced span
// on a causal flow, so altobench -scope on E15 shows who detected what and
// where the good copy came from.
package cluster

import (
	"fmt"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cAuditUnreachable = trace.NewCounter("cluster.audit.unreachable")
	cClientFetch      = trace.NewCounter("cluster.client.fetch")
	cClientStore      = trace.NewCounter("cluster.client.store")
	cDivergence       = trace.NewCounter("cluster.divergence")
	cFormat           = trace.NewCounter("cluster.format")
	cHeal             = trace.NewCounter("cluster.heal")
	cHealBytes        = trace.NewCounter("cluster.heal.bytes")
	cPollWork         = trace.NewCounter("cluster.poll.work")
	cReadLocal        = trace.NewCounter("cluster.read.local")
	cReboot           = trace.NewCounter("cluster.reboot")
	cRound            = trace.NewCounter("cluster.round")
	cStoreLocal       = trace.NewCounter("cluster.store.local")
)

// Config describes a cluster to build.
type Config struct {
	// Shards and Replicas fix the placement map: Shards×Replicas machines.
	Shards   int
	Replicas int
	// Wire is the shared medium every station attaches to. Each replica
	// gets its own clock, so the replicas run as fleet.Engine machines.
	Wire *ether.Network
	// Geometry is each replica's pack shape.
	Geometry disk.Geometry
	// AuditPup tunes the auditor endpoints; each replica's Seed is offset
	// by its global index so connection ids stay distinct and deterministic.
	AuditPup pup.Config
	// Recorder maps a replica name ("shard0/r1") to its trace recorder.
	// Nil gives replicas no recorder (counters off).
	Recorder func(name string) *trace.Recorder
}

// Cluster is a built set of replicas, shard-major order.
type Cluster struct {
	Place    Placement
	Replicas []*Replica
}

// Replica is one storage machine: a fileserver over its own pack on one
// station, plus the auditor — a second station it dials shard peers from.
type Replica struct {
	Shard int
	Index int // within the shard

	clock *sim.Clock
	rec   *trace.Recorder
	drive *disk.Drive
	fs    *file.FS
	srv   *fileserver.Server
	srvSt *ether.Station
	audSt *ether.Station
	audEp *pup.Endpoint

	peers     []peerRef // shard peers in replica-index order, self excluded
	audCfg    pup.Config
	rounds    int     // audit rounds run
	lastHealR int     // round number of the most recent heal
	local     localIO // handle storage every heal's store re-primes
}

// peerRef names one shard peer: its replica index and server address.
type peerRef struct {
	index int
	addr  ether.Addr
}

// Name returns the replica's diagnostic name.
func (r *Replica) Name() string { return fmt.Sprintf("shard%d/r%d", r.Shard, r.Index) }

// Clock returns the replica's clock.
func (r *Replica) Clock() *sim.Clock { return r.clock }

// Drive returns the replica's disk, the surface rot and crashes land on.
func (r *Replica) Drive() *disk.Drive { return r.drive }

// FS returns the replica's mounted file system, for offline verification.
func (r *Replica) FS() *file.FS { return r.fs }

// Server returns the replica's file server.
func (r *Replica) Server() *fileserver.Server { return r.srv }

// Stations returns the replica's two attachments, server first — the fleet
// machine config lists both so the engine wakes the replica for arrivals on
// either.
func (r *Replica) Stations() []*ether.Station { return []*ether.Station{r.srvSt, r.audSt} }

// LastHealRound reports the 1-based round number of the replica's most
// recent heal (0: never healed) — convergence took that many rounds.
func (r *Replica) LastHealRound() int { return r.lastHealR }

// New builds the cluster: Shards×Replicas machines, each with its own clock,
// formatted pack (checksum maintenance live, so later rot is detectable),
// file server, and auditor endpoint. Stations attach in shard-major order;
// creation order is part of the deterministic schedule.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 || cfg.Replicas < 2 {
		return nil, fmt.Errorf("cluster: need >=1 shards and >=2 replicas, got %dx%d", cfg.Shards, cfg.Replicas)
	}
	place := Placement{Shards: cfg.Shards, Replicas: cfg.Replicas}
	c := &Cluster{Place: place}
	for s := 0; s < cfg.Shards; s++ {
		for i := 0; i < cfg.Replicas; i++ {
			r, err := newReplica(cfg, place, s, i)
			if err != nil {
				return nil, err
			}
			c.Replicas = append(c.Replicas, r)
		}
	}
	return c, nil
}

func newReplica(cfg Config, place Placement, shard, idx int) (*Replica, error) {
	r := &Replica{Shard: shard, Index: idx, clock: sim.NewClock()}
	if cfg.Recorder != nil {
		r.rec = cfg.Recorder(r.Name())
	}
	var err error
	if r.srvSt, err = cfg.Wire.Attach(place.ServerAddr(shard, idx)); err != nil {
		return nil, err
	}
	r.srvSt.SetClock(r.clock)
	r.srvSt.SetRecorder(r.rec)
	if r.audSt, err = cfg.Wire.Attach(place.AuditorAddr(shard, idx)); err != nil {
		return nil, err
	}
	r.audSt.SetClock(r.clock)
	r.audSt.SetRecorder(r.rec)

	global := shard*place.Replicas + idx
	//altovet:allow wordwidth global+1 counts the cluster's replicas, a fleet far below 2^16
	if r.drive, err = disk.NewDrive(cfg.Geometry, disk.Word(global+1), r.clock); err != nil {
		return nil, err
	}
	if r.fs, err = file.Format(r.drive); err != nil {
		return nil, err
	}
	if _, err = dir.InitRoot(r.fs); err != nil {
		return nil, err
	}
	// The recorder is attached after the format, whose disk ops belong to
	// no timeline: the clock restarts at zero below.
	r.drive.SetRecorder(r.rec)
	r.srv = fileserver.NewServer(r.fs, pup.NewEndpoint(r.srvSt, pup.Config{}))

	r.audCfg = cfg.AuditPup
	r.audCfg.Seed = cfg.AuditPup.Seed + uint64(global) + 1
	r.audEp = pup.NewEndpoint(r.audSt, r.audCfg)

	for p := 0; p < place.Replicas; p++ {
		if p != idx {
			r.peers = append(r.peers, peerRef{index: p, addr: place.ServerAddr(shard, p)})
		}
	}
	// The pack was formatted before the cluster's timeline starts.
	r.clock.Reset()
	r.rec.Add(cFormat, 1)
	return r, nil
}

// Reboot models the replica restarting after a crash: power is back, the
// Scavenger has already repaired the pack (the crash explorer's business),
// and the machine remounts its file system and brings up a fresh server and
// auditor on the same stations — every connection the old life held died
// with it, exactly as on real iron.
func (r *Replica) Reboot() error {
	r.drive.ClearCrash()
	fs, err := file.Mount(r.drive)
	if err != nil {
		return fmt.Errorf("%s: reboot mount: %w", r.Name(), err)
	}
	r.fs = fs
	r.srv = fileserver.NewServer(fs, pup.NewEndpoint(r.srvSt, pup.Config{}))
	r.audEp = pup.NewEndpoint(r.audSt, r.audCfg)
	r.rec.Add(cReboot, 1)
	return nil
}

// Poll advances the replica's machinery one step: the file server serves
// inbound sessions, and the auditor endpoint drains any packets still
// addressed to closed audit connections. Returns whether any work happened.
func (r *Replica) Poll() (bool, error) {
	worked, err := r.srv.Poll()
	if err != nil {
		return true, err
	}
	w2, err := r.audEp.Poll()
	if err != nil {
		return true, err
	}
	if worked || w2 {
		r.rec.Add(cPollWork, 1)
	}
	return worked || w2, nil
}

// ServeProgram is the replica's life as a pure file server (no audits): the
// fleet daemon program for a cluster under client load.
func (r *Replica) ServeProgram() func(*fleet.Machine) error {
	return func(m *fleet.Machine) error {
		return fleet.PollUntil(m.Sync, m.Idle, r.Poll, m.Draining)
	}
}

const (
	// auditQuiet is how many consecutive clean audit rounds a replica
	// demands before it stops scheduling audits and lets the fleet drain.
	auditQuiet = 2
	// auditInterval separates a replica's audit rounds in AuditProgram.
	auditInterval = 120 * time.Millisecond
)

// AuditProgram is the replica's life as a scavenging daemon: serve peers,
// and each time the audit deadline passes run one full round against the
// shard group. After auditQuiet consecutive clean rounds the replica stops
// scheduling audits and parks; when every replica has gone quiet and the
// wire is silent, the fleet drains and the program returns. startAt is the
// replica's first audit deadline on its own clock — stagger replicas so
// rounds interleave instead of colliding.
func (r *Replica) AuditProgram(startAt time.Duration) func(*fleet.Machine) error {
	return func(m *fleet.Machine) error {
		next := startAt
		clean := 0
		poll := func() (bool, error) {
			worked, err := r.Poll()
			if err != nil || clean >= auditQuiet || r.clock.Now() < next {
				return worked, err
			}
			out, err := r.AuditRound(m.Sync, m.Idle)
			if err != nil {
				return true, err
			}
			if out.Divergent == 0 {
				clean++
			} else {
				clean = 0
			}
			next = r.clock.Now() + auditInterval
			return true, nil
		}
		idle := func() {
			if clean < auditQuiet {
				r.clock.RequestWake(next)
			}
			m.Idle()
		}
		return fleet.PollUntil(m.Sync, idle, poll, m.Draining)
	}
}
