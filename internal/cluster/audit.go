package cluster

// The peer-audit protocol: each round a replica gathers its shard group's
// digest tables — its own read straight off the pack, every peer's over the
// wire via MsgDigest — decides per file whether the group agrees, and when
// its own copy is the wrong one, heals it by fetching the authoritative copy
// from a peer. The decision is a pure function of the tables, so every
// replica reaches the same verdict independently: no coordinator, no
// election, no repair lock. A copy is wrong when it is missing, when its
// drive's own checksums say it was damaged outside the disciplined write
// path (rot), or when it loses the content vote — majority of clean copies
// first, freshest write stamp to break ties, lowest replica index last, so
// the vote never dead-heats.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"altoos/internal/ether"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/trace"
)

// errTimeout reports an audit call whose reply did not arrive within the
// auditor's retry budget.
var errTimeout = errors.New("cluster: audit call timed out")

// AuditOutcome reports one round.
type AuditOutcome struct {
	// Divergent counts files on which the shard group disagreed — a missing
	// copy, a rotted copy, or a content mismatch.
	Divergent int
	// Healed counts files this replica refetched from a peer.
	Healed int
	// Unreachable counts peers that failed to answer the digest poll, plus
	// heals whose authority did not deliver the file.
	Unreachable int
}

// repair is one file this replica must refetch, and from whom.
type repair struct {
	name      string
	authority int // replica index holding the good copy
}

// AuditRound runs one full audit round synchronously on the replica's fleet
// machine. Its waits are fleet.PollUntil loops: sync lets the fleet window
// catch up before each wire observation (fleet.Machine.Sync), and idle parks
// the machine when a poll sweep moved nothing (Idle). Callers may wrap
// either, to trace the parks.
func (r *Replica) AuditRound(sync, idle func()) (AuditOutcome, error) {
	r.rounds++
	var out AuditOutcome
	flow := r.rec.NextFlow()
	start := r.clock.Now()

	// Gather the group's tables, replica-index order, self read locally.
	group := len(r.peers) + 1
	tables := make([][]fileserver.Digest, group)
	have := make([]bool, group)
	local, err := fileserver.DigestTable(r.fs)
	if err != nil {
		return out, fmt.Errorf("%s: local digest: %w", r.Name(), err)
	}
	tables[r.Index], have[r.Index] = local, true
	for _, p := range r.peers {
		data, err := r.call(p.addr, func(cl *fileserver.Client) error { return cl.Digests() }, sync, idle)
		if err != nil {
			// An unreachable peer sits this round out; its copies are
			// neither voted on nor treated as missing.
			out.Unreachable++
			r.rec.Add(cAuditUnreachable, 1)
			continue
		}
		digs, err := fileserver.ParseDigests(data)
		if err != nil {
			return out, fmt.Errorf("%s: digest from r%d: %w", r.Name(), p.index, err)
		}
		tables[p.index], have[p.index] = digs, true
	}

	divergent, repairs := plan(r.Index, tables, have)
	out.Divergent = len(divergent)
	for _, rep := range repairs {
		healed, err := r.heal(rep, flow, sync, idle)
		if err != nil {
			return out, err
		}
		if !healed {
			// The authority went silent mid-heal: the file stays
			// divergent, and the next round retries it.
			out.Unreachable++
			r.rec.Add(cAuditUnreachable, 1)
			continue
		}
		out.Healed++
	}

	r.rec.EmitSpanFlow(start, r.clock.Now()-start, trace.KindClusterAudit, r.Name(),
		int64(len(r.peers)-out.Unreachable), int64(out.Divergent), flow)
	r.rec.Add(cRound, 1)
	r.rec.Add(cDivergence, int64(out.Divergent))
	return out, nil
}

// heal refetches one file from its authority and rewrites the local copy
// through the disciplined write path, which also refreshes the sector
// checksums rot left stale. It reports false when the authority did not
// deliver the file; an error is a local failure.
func (r *Replica) heal(rep repair, flow int64, sync, idle func()) (bool, error) {
	start := r.clock.Now()
	addr := r.authorityAddr(rep.authority)
	data, err := r.call(addr, func(cl *fileserver.Client) error { return cl.Fetch(rep.name) }, sync, idle)
	if err != nil {
		return false, nil
	}
	if err := r.local.store(r.fs, rep.name, data); err != nil {
		return false, fmt.Errorf("%s: heal %q store: %w", r.Name(), rep.name, err)
	}
	r.lastHealR = r.rounds
	r.rec.EmitSpanFlow(start, r.clock.Now()-start, trace.KindClusterHeal, rep.name,
		int64(rep.authority), int64(len(data)), flow)
	r.rec.Add(cHeal, 1)
	r.rec.Add(cHealBytes, int64(len(data)))
	return true, nil
}

// authorityAddr maps a peer replica index to its server address.
func (r *Replica) authorityAddr(index int) ether.Addr {
	for _, p := range r.peers {
		if p.index == index {
			return p.addr
		}
	}
	return 0 // unreachable: plan never names self or an unknown index
}

// call runs one RPC against a server: fresh connection, the request, the
// reply bytes, then a graceful close — every audit poll is its own session,
// so a round leaves no long-lived connection state behind to time out.
func (r *Replica) call(addr ether.Addr, req func(*fileserver.Client) error, sync, idle func()) ([]byte, error) {
	cl := fileserver.NewClient(r.audEp)
	if err := cl.Connect(addr); err != nil {
		return nil, err
	}
	if err := req(cl); err != nil {
		return nil, err
	}
	data, err := r.awaitDone(cl, sync, idle)
	if cl.Close() == nil {
		r.awaitClosed(cl, sync, idle)
	}
	return data, err
}

// awaitDone drives the replica until the RPC completes: poll the client,
// keep serving inbound sessions (a peer may be auditing us right now), and
// park when a sweep moved nothing. The requester decides when to give up:
// once the auditor's own retry budget (MaxRetries × MaxRTO) has passed
// without a complete reply, the call fails with errTimeout. The peer's
// transport may have abandoned the reply, and once the request is acked
// nothing on the wire would wake the requester again.
// The deadline is judged after each sweep; its wake is requested as the
// replica parks.
func (r *Replica) awaitDone(cl *fileserver.Client, sync, idle func()) ([]byte, error) {
	cfg := r.audEp.Config()
	deadline := r.clock.Now() + time.Duration(cfg.MaxRetries)*cfg.MaxRTO
	expired := false
	err := fleet.PollUntil(sync, func() {
		r.clock.RequestWake(deadline)
		idle()
	}, func() (bool, error) {
		worked, err := r.pollWith(cl)
		expired = !cl.Done() && r.clock.Now() >= deadline
		return worked, err
	}, func() bool { return cl.Done() || expired })
	switch {
	case err != nil:
		return nil, err
	case expired:
		return nil, errTimeout
	}
	return cl.Result()
}

// awaitClosed drives the close handshake to rest (an error also closes),
// serving inbound sessions meanwhile.
func (r *Replica) awaitClosed(cl *fileserver.Client, sync, idle func()) {
	_ = fleet.PollUntil(sync, idle, func() (bool, error) { return r.pollWith(cl) },
		func() bool { return cl.Conn().State() == pup.StateClosed })
}

// pollWith is one sweep of a replica waiting on its own RPC: the client's
// transfer first, then the file server, so a peer auditing this replica is
// served while it waits.
func (r *Replica) pollWith(cl *fileserver.Client) (bool, error) {
	w1, err := cl.Poll()
	if err != nil {
		return true, err
	}
	w2, err := r.srv.Poll()
	return w1 || w2, err
}

// plan is the pure audit decision: given the shard group's digest tables
// (index = replica index; have marks reachable replicas), return the names
// the group diverges on and the repairs replica self must perform. Every
// replica computes the same divergence set and the same per-file authority;
// self's repairs are just the rows where self is on the losing side.
func plan(self int, tables [][]fileserver.Digest, have []bool) (divergent []string, repairs []repair) {
	names := nameUnion(tables, have)
	for _, name := range names {
		ds := make([]*fileserver.Digest, len(tables))
		for i := range tables {
			if !have[i] {
				continue
			}
			for j := range tables[i] {
				if tables[i][j].Name == name {
					ds[i] = &tables[i][j]
					break
				}
			}
		}
		if agreed(ds, have) {
			continue
		}
		divergent = append(divergent, name)
		winner := vote(ds, have)
		if winner < 0 || winner == self {
			continue
		}
		d := ds[self]
		w := ds[winner]
		if d == nil || !d.Clean || d.CRC != w.CRC || d.Size != w.Size {
			repairs = append(repairs, repair{name: name, authority: winner})
		}
	}
	return divergent, repairs
}

// agreed reports whether every reachable replica holds the file, clean,
// with identical content.
func agreed(ds []*fileserver.Digest, have []bool) bool {
	var first *fileserver.Digest
	for i, d := range ds {
		if !have[i] {
			continue
		}
		if d == nil || !d.Clean {
			return false
		}
		if first == nil {
			first = d
		} else if d.CRC != first.CRC || d.Size != first.Size {
			return false
		}
	}
	return true
}

// vote picks the authoritative copy: among clean copies, the content held
// by the most replicas wins; ties go to the freshest write stamp, then the
// lowest replica index. Returns that index, or -1 when no clean copy exists
// (nothing trustworthy to heal from).
func vote(ds []*fileserver.Digest, have []bool) int {
	best := -1
	bestCount := 0
	var bestWritten int64
	for i, d := range ds {
		if !have[i] || d == nil || !d.Clean {
			continue
		}
		count := 0
		written := int64(0)
		for j, e := range ds {
			if !have[j] || e == nil || !e.Clean || e.CRC != d.CRC || e.Size != d.Size {
				continue
			}
			count++
			if int64(e.Written) > written {
				written = int64(e.Written)
			}
		}
		if count > bestCount || (count == bestCount && written > bestWritten) {
			best, bestCount, bestWritten = i, count, written
		}
	}
	return best
}

// nameUnion returns every file name any reachable table mentions, sorted.
func nameUnion(tables [][]fileserver.Digest, have []bool) []string {
	var names []string
	for i := range tables {
		if !have[i] {
			continue
		}
		for _, d := range tables[i] {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}
