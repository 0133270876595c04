package crashpoint

// The cluster workload crashes one replica of a shard group mid-store and
// certifies the distributed Scavenger's half of the §3.5 claim: the local
// Scavenger and fsck repair the victim's pack, and then the rebooted replica
// re-audits with its peers until every copy in the group is byte-identical
// again — whichever side of the interrupted overwrite the vote lands on.

import (
	"bytes"
	"fmt"

	"altoos/internal/cluster"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
)

// clusterPayload builds deterministic non-periodic content (a 256-byte
// period would fold to a zero page CRC under the drive's rotate-xor
// checksum and hide from the audit digests).
func clusterPayload(seed, n int) []byte {
	data := make([]byte, n)
	x := uint32(seed)*2654435761 + 12345
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	return data
}

// buildClusterStore explores a replicated store: a client writes through a
// 1×3 shard group and the middle replica's pack dies partway. The earlier
// replica already holds the new bytes, the later one never sees them, the
// victim holds whatever the crash left — re-audit must converge all three.
func buildClusterStore() (*Rig, error) {
	wire := ether.New(nil)
	c, err := cluster.New(cluster.Config{
		Shards:   1,
		Replicas: 3,
		Wire:     wire,
		Geometry: exploreGeometry(),
	})
	if err != nil {
		return nil, err
	}
	st, err := wire.Attach(cluster.ClientAddrBase)
	if err != nil {
		return nil, err
	}
	st.SetClock(sim.NewClock())
	ep := pup.NewEndpoint(st, pup.Config{Seed: 99})

	// store is one client program: it writes each file through the group
	// up to the first failure, then closes every session it dialed. A
	// dying pack surfaces as MsgError to the client, so the failed store
	// is returned, not raised as the fleet's error.
	store := func(names []string, data func(i int) []byte) error {
		var storeErr error
		err := runCluster(c, wire, fleet.MachineConfig{Name: "client", Clock: st.Clock(), Station: st,
			Program: func(m *fleet.Machine) error {
				cl := cluster.NewClient(c.Place, ep)
				wait := func(fc *fileserver.Client) error {
					if err := fleet.PollUntil(m.Sync, m.Idle, fc.Poll, fc.Done); err != nil {
						return err
					}
					_, err := fc.Result()
					return err
				}
				for i := 0; i < len(names) && storeErr == nil; i++ {
					storeErr = cl.Store(names[i], data(i), wait)
				}
				for _, fc := range cl.Close() {
					closed := func() bool { return fc.Conn().State() == pup.StateClosed }
					if err := fleet.PollUntil(m.Sync, m.Idle, fc.Poll, closed); err != nil {
						return err
					}
				}
				return nil
			}})
		if err != nil {
			return err
		}
		return storeErr
	}

	names := []string{"base-0", "base-1", "upload"}
	if err := store(names, func(i int) []byte { return clusterPayload(i+1, 2*disk.PageBytes+137) }); err != nil {
		return nil, err
	}
	victim := c.Replicas[1]
	over := clusterPayload(7, 3*disk.PageBytes+33)
	return &Rig{
		Drive: victim.Drive(),
		Run: func() error {
			// The victim dies mid-overwrite; the client's group store fails.
			// That failure is the crash's observable effect, not a rig error.
			_ = store([]string{"upload"}, func(int) []byte { return over })
			return nil
		},
		Verify: func() []string {
			return verifyClusterConverges(c, wire, victim, names)
		},
	}, nil
}

// runCluster runs one fleet engine: main runs its program, and every
// replica but main's own (the one on main's clock) serves as a daemon.
func runCluster(c *cluster.Cluster, wire *ether.Network, main fleet.MachineConfig) error {
	eng := fleet.New(fleet.Medium(wire))
	for _, r := range c.Replicas {
		if r.Clock() == main.Clock {
			continue
		}
		if err := eng.Add(fleet.MachineConfig{Name: r.Name(), Clock: r.Clock(), Stations: r.Stations(),
			Daemon: true, Program: r.ServeProgram()}); err != nil {
			return err
		}
	}
	if err := eng.Add(main); err != nil {
		return err
	}
	return eng.Run()
}

// verifyClusterConverges reboots the victim and drives audit rounds, each
// an engine run with the auditing replica as the program, until the whole
// group reports a divergence-free pass, then demands every file be
// byte-identical on every replica.
func verifyClusterConverges(c *cluster.Cluster, wire *ether.Network, victim *cluster.Replica, names []string) []string {
	var out []string
	if err := victim.Reboot(); err != nil {
		return []string{fmt.Sprintf("victim reboot failed: %v", err)}
	}
	audit := func(r *cluster.Replica) (o cluster.AuditOutcome, err error) {
		err = runCluster(c, wire, fleet.MachineConfig{Name: r.Name(), Clock: r.Clock(), Stations: r.Stations(),
			Program: func(m *fleet.Machine) error {
				var err error
				o, err = r.AuditRound(m.Sync, m.Idle)
				return err
			}})
		return o, err
	}
	converged := false
	for round := 0; round < 6 && !converged; round++ {
		converged = true
		for _, r := range c.Replicas {
			o, err := audit(r)
			if err != nil {
				return append(out, fmt.Sprintf("re-audit on %s: %v", r.Name(), err))
			}
			if o.Divergent > 0 || o.Unreachable > 0 {
				converged = false
			}
		}
	}
	if !converged {
		out = append(out, "shard group never re-audited to convergence")
	}
	for _, name := range names {
		var want []byte
		for i, r := range c.Replicas {
			got, err := cluster.ReadLocal(r.FS(), name)
			if err != nil {
				out = append(out, fmt.Sprintf("%s: %q unreadable after re-audit: %v", r.Name(), name, err))
				continue
			}
			if i == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				out = append(out, fmt.Sprintf("%s: %q still diverges after re-audit", r.Name(), name))
			}
		}
	}
	return out
}
