package disk

// Fault injection. These methods model damage happening to the pack outside
// the disciplined label-checked write path: media decay, a crashed program
// scribbling with a stale map, a power failure mid-write. They bypass every
// check and charge no simulated time, exactly as real damage would. The
// robustness experiments (E8) injure a disk this way and then measure how
// much the label checks and the Scavenger recover.

import "altoos/internal/sim"

// MarkBad makes the sector permanently unreadable: every operation on it
// fails with ErrBadSector. The Scavenger retires such pages with the special
// bad-page label so they are never allocated again (§3.5).
func (d *Drive) MarkBad(addr VDA) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < d.nsector {
		d.touch(addr).bad = true
	}
}

// HealBad clears a bad-sector fault (the media recovered or was replaced).
func (d *Drive) HealBad(addr VDA) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < d.nsector {
		d.touch(addr).bad = false
	}
}

// ZapLabel overwrites the sector's label with arbitrary words, bypassing all
// checks — the kind of damage a wild microcode write or media failure causes.
func (d *Drive) ZapLabel(addr VDA, w [LabelWords]Word) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < d.nsector {
		d.touch(addr).label = w
	}
}

// ZapValue overwrites the sector's value with arbitrary words, bypassing all
// checks.
func (d *Drive) ZapValue(addr VDA, v [PageWords]Word) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < d.nsector {
		d.touch(addr).value = v
	}
}

// CorruptLabel flips pseudo-random bits in the sector's label.
func (d *Drive) CorruptLabel(addr VDA, r *sim.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= d.nsector {
		return
	}
	lbl := &d.touch(addr).label
	for i := 0; i < 3; i++ {
		w := r.Intn(LabelWords)
		lbl[w] ^= 1 << uint(r.Intn(16))
	}
}

// CorruptValue flips pseudo-random bits in the sector's value.
func (d *Drive) CorruptValue(addr VDA, r *sim.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= d.nsector {
		return
	}
	v := &d.touch(addr).value
	for i := 0; i < 8; i++ {
		w := r.Intn(PageWords)
		v[w] ^= 1 << uint(r.Intn(16))
	}
}

// Rot models slow media decay on an idle pack: up to n distinct in-use
// sectors whose labels pass the eligibility filter get pseudo-random bits
// flipped in their values, checksums deliberately left stale. Candidates are
// gathered in address order and chosen by the caller's seeded Rand, so a
// replayed run rots identically. A nil filter makes every in-use sector
// eligible; a never-written sector is free, so only stored sectors are
// candidates. The struck addresses are returned for the experiment's ledger —
// what the audit protocol must later detect and heal.
func (d *Drive) Rot(r *sim.Rand, n int, eligible func(Label) bool) []VDA {
	d.mu.Lock()
	defer d.mu.Unlock()
	var cand []VDA
	for i, u := range d.units {
		for j := range u {
			w := u[j].label
			if !InUse(w) {
				continue
			}
			if eligible != nil && !eligible(LabelFromWords(w)) {
				continue
			}
			//altovet:allow wordwidth the sector is on the pack, and Validate keeps NSectors within a VDA
			cand = append(cand, VDA(i*d.unit+j))
		}
	}
	if n > len(cand) {
		n = len(cand)
	}
	struck := make([]VDA, 0, n)
	for k := 0; k < n; k++ {
		pick := k + r.Intn(len(cand)-k)
		cand[k], cand[pick] = cand[pick], cand[k]
		addr := cand[k]
		v := &d.touch(addr).value
		for i := 0; i < 8; i++ {
			w := r.Intn(PageWords)
			v[w] ^= 1 << uint(r.Intn(16))
		}
		struck = append(struck, addr)
	}
	return struck
}

// CrashAfterWrites arms the crash injector: after n more successful write
// actions the drive behaves as if power failed — the (n+1)th and all later
// writes are lost and return ErrCrashed. Reads and checks keep working, as
// they would on a machine restarted after the crash. Pass a negative n to
// disarm.
func (d *Drive) CrashAfterWrites(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAfterWrites = n
	if n >= 0 {
		d.crashed = false
		d.crashAt = 0
	}
}

// SetTornCrash selects how the armed crash lands. With torn on, the write
// the power failure catches is not suppressed cleanly: the part under the
// head is deposited garbled (tearInto) and its checksum goes stale, as a
// real head drop leaves it. Later writes are suppressed as usual. The flag
// persists across ClearCrash so a rig can be armed once per run.
func (d *Drive) SetTornCrash(torn bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornCrash = torn
}

// CrashAt reports the write-action sequence number (1-based over the
// drive's lifetime) of the write the armed crash destroyed, and whether the
// crash has fired at all. ClearCrash keeps the value for post-mortem
// reporting; re-arming with CrashAfterWrites resets it.
func (d *Drive) CrashAt() (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashAt, d.crashAt != 0
}

// ClearCrash models restarting the machine after a crash: writes work again.
func (d *Drive) ClearCrash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
	d.crashAfterWrites = -1
}

// Crashed reports whether the simulated crash has triggered.
func (d *Drive) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}
