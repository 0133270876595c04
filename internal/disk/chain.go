package disk

import (
	"errors"
	"time"

	"altoos/internal/trace"
)

// The Alto's disk controller does not take one command at a time: the
// microcode walks a chain of command blocks, deciding once how to schedule
// the whole transfer. DoChain is that controller interface. A chain is
// cheaper than the equivalent Do calls in two ways: the drive makes one
// scheduling decision (and takes its lock once) for the whole batch, and in
// free order it can serve a scattered batch in rotational position order
// instead of paying a missed revolution per out-of-phase sector.

// ChainMode selects how DoChain may order the operations of a chain.
type ChainMode uint8

const (
	// Ordered preserves the caller's order exactly. Use it whenever one
	// operation's meaning depends on an earlier one — link-chasing label
	// checks, check-then-write pairs, anything that must abort as a unit.
	// An operation that fails stops the chain: later operations do not run
	// and report ErrChainAborted.
	Ordered ChainMode = iota
	// FreeOrder lets the rotational scheduler reorder the chain for minimal
	// seek and rotational latency. The operations must be independent: each
	// runs regardless of the others' outcomes and reports its own error.
	// The ops slice is reordered in place; errs[i] always describes ops[i]
	// as returned. One exception to independence: a simulated power failure
	// (ErrCrashed) kills the controller, not one command block, so the rest
	// of the chain never runs and reports ErrChainAborted — in either mode.
	FreeOrder
)

// String implements fmt.Stringer.
func (m ChainMode) String() string {
	if m == Ordered {
		return "ordered"
	}
	return "free-order"
}

// ErrChainAborted marks an operation that never ran because an earlier
// operation of an Ordered chain failed. The failure itself is reported at
// the earlier operation's position.
var ErrChainAborted = errors.New("disk: chain aborted by earlier operation failure")

// ChainDevice is implemented by devices that accept chained transfers.
// It is optional: the standard packages probe for it and fall back to
// one-at-a-time Do calls, so a custom Device (§5.2) keeps working unchanged.
type ChainDevice interface {
	// DoChain performs a chain of sector operations under one scheduling
	// decision. A nil result means every operation succeeded; otherwise the
	// result has len(ops) entries and errs[i] reports ops[i]'s outcome
	// (nil for success). In FreeOrder mode ops may be reordered in place.
	DoChain(ops []Op, mode ChainMode) []error
}

var _ ChainDevice = (*Drive)(nil)

// DoChain implements ChainDevice. Timing and semantics per sector are
// exactly those of Do — same label-check abort within a sector, same
// "once a write begins it must continue" rule — the chain only changes how
// many scheduling decisions are made and, in FreeOrder mode, the order of
// independent operations. The untraced success path allocates nothing.
func (d *Drive) DoChain(ops []Op, mode ChainMode) []error {
	if len(ops) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	if mode == FreeOrder {
		d.schedule(ops)
	}
	d.stats.Chains++
	chainStart := d.clock.Now()

	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(ops))
		}
		errs[i] = err
	}
	failures := int64(0)
	for i := range ops {
		op := &ops[i]
		err := validate(op)
		if err == nil {
			d.stats.Ops++
			start := d.clock.Now()
			err = d.do(op)
			if d.rec != nil {
				d.traceOp(op, start, err)
			}
		}
		if err == nil {
			continue
		}
		failures++
		fail(i, err)
		// Ordered chains abort on any failure. A crash aborts in either
		// mode: power failed under the controller mid-chain, so the ops it
		// had not reached yet were never issued at all.
		if mode == Ordered || errors.Is(err, ErrCrashed) {
			for j := i + 1; j < len(ops); j++ {
				errs[j] = ErrChainAborted
			}
			break
		}
	}
	if d.rec != nil {
		now := d.clock.Now()
		d.rec.EmitSpan(chainStart, now-chainStart, trace.KindDiskChain,
			mode.String(), int64(len(ops)), failures)
		d.rec.Add(cChains, 1)
	}
	return errs
}

// DoChainOn runs a chain on any Device. A device implementing ChainDevice
// gets the controller path; anything else falls back to issuing the
// operations one at a time with identical semantics (including Ordered's
// abort), so code written against chains still runs on a plain Device.
func DoChainOn(dev Device, ops []Op, mode ChainMode) []error {
	if cd, ok := dev.(ChainDevice); ok {
		return cd.DoChain(ops, mode)
	}
	var errs []error
	for i := range ops {
		err := dev.Do(&ops[i])
		if err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(ops))
		}
		errs[i] = err
		if mode == Ordered || errors.Is(err, ErrCrashed) {
			for j := i + 1; j < len(ops); j++ {
				errs[j] = ErrChainAborted
			}
			break
		}
	}
	return errs
}

// FirstChainError extracts the first real failure from a DoChain result:
// the first non-nil entry that is not the ErrChainAborted echo of an
// earlier failure. Nil when the chain succeeded.
func FirstChainError(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrChainAborted) {
			return err
		}
	}
	return nil
}

// schedule reorders a FreeOrder chain for minimal latency. It is the
// simulation's stand-in for the controller microcode's transfer ordering,
// and it must be deterministic: it derives everything from the operations'
// addresses, the geometry, and the current simulated clock — no maps, no
// wall clock, no randomness — so two runs of the same workload schedule
// identically and the flight-recorder traces stay byte-identical.
//
// The policy is an elevator over the pack: sort by (cylinder, head, slot),
// which for this geometry is exactly ascending disk address, then rotate
// each same-track run so it starts at the first slot at or after the head's
// predicted rotational position on arrival. A dense track (all twelve
// sectors) is then served in one revolution from wherever the head lands,
// instead of waiting for slot zero to come around. Same-cylinder ops on
// different heads stay grouped per head: a head switch is free, but reading
// the same slot range on both heads takes a revolution each regardless of
// order, and interleaving the heads slot-by-slot would miss nearly a full
// revolution per sector.
//
// schedule only plans: it predicts arrival times with the same arithmetic
// advanceTo charges later, and mutates nothing but the order of ops.
// d.mu is held.
func (d *Drive) schedule(ops []Op) {
	sortOpsByAddr(ops)

	g := d.geom
	st := g.SectorTime()
	rev := g.RevTime
	spt := g.SectorsPerTrack
	n := VDA(g.NSectors())

	t := d.clock.Now()
	cur := d.curCyl
	i := 0
	for i < len(ops) {
		if ops[i].Addr >= n {
			// Out-of-range addresses sort to the end and will fail in
			// execution; there is nothing to schedule.
			break
		}
		// A run is a maximal group of ops on one track (cylinder + head).
		track := int(ops[i].Addr) / spt
		j := i + 1
		for j < len(ops) && ops[j].Addr < n && int(ops[j].Addr)/spt == track {
			j++
		}
		run := ops[i:j]

		cyl, _, _ := g.Locate(ops[i].Addr)
		if cyl != cur {
			t += g.SeekTime(cyl - cur)
			cur = cyl
		}

		// Rotate the run to start at the first slot the head can still
		// catch this revolution; if every slot has already passed, the
		// earliest slot of the next revolution is the natural start.
		pos := t % rev
		k := 0
		for k < len(run) {
			_, _, sect := g.Locate(run[k].Addr)
			if time.Duration(sect)*st >= pos {
				break
			}
			k++
		}
		if k == len(run) {
			k = 0
		}
		rotateOps(run, k)

		// Predict the time the run consumes, mirroring advanceTo.
		for idx := range run {
			_, _, sect := g.Locate(run[idx].Addr)
			target := time.Duration(sect) * st
			wait := target - t%rev
			if wait < 0 {
				wait += rev
			}
			t += wait + st
		}
		i = j
	}
}

// sortOpsByAddr sorts ops by disk address — physically, by (cylinder, head,
// slot). Shell sort: in place, no allocation, deterministic. Operations on
// the same sector keep no guaranteed relative order, which FreeOrder's
// independence requirement already demands.
func sortOpsByAddr(ops []Op) {
	for gap := len(ops) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(ops); i++ {
			for j := i; j >= gap && ops[j].Addr < ops[j-gap].Addr; j -= gap {
				ops[j], ops[j-gap] = ops[j-gap], ops[j]
			}
		}
	}
}

// rotateOps rotates run left by k positions using triple reversal, so the
// op at index k becomes first. In place, no allocation.
func rotateOps(run []Op, k int) {
	if k <= 0 || k >= len(run) {
		return
	}
	reverseOps(run[:k])
	reverseOps(run[k:])
	reverseOps(run)
}

func reverseOps(run []Op) {
	for l, r := 0, len(run)-1; l < r; l, r = l+1, r-1 {
		run[l], run[r] = run[r], run[l]
	}
}
