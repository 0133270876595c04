package disk

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cBadSector    = trace.NewCounter("disk.bad_sector")
	cChains       = trace.NewCounter("disk.chains")
	cCheckFail    = trace.NewCounter("disk.check.fail")
	cCrcMismatch  = trace.NewCounter("disk.crc.mismatch")
	hOpRevs       = trace.NewHist("disk.op.revs")
	cOps          = trace.NewCounter("disk.ops")
	cSeeks        = trace.NewCounter("disk.seeks")
	cWriteCrashed = trace.NewCounter("disk.write.crashed")
	cWriteTorn    = trace.NewCounter("disk.write.torn")
)

// Action selects what a disk operation does to one part of a sector.
type Action uint8

const (
	// None skips the part.
	None Action = iota
	// Read copies the part from disk into the caller's buffer.
	Read
	// Check compares the caller's buffer with the disk word by word and
	// aborts the entire operation on mismatch. A zero buffer word is a
	// wildcard: it is replaced by the disk word, so a check is "a simple
	// kind of pattern match" (§3.3) that doubles as a guarded read.
	Check
	// Write copies the caller's buffer onto the disk. Once a write is begun
	// it must continue through the rest of the sector (§3.3): a Write on an
	// earlier part requires Write on every later part.
	Write
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Read:
		return "read"
	case Check:
		return "check"
	case Write:
		return "write"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Part names one of the three regions of a sector, in rotational order.
type Part uint8

const (
	PartHeader Part = iota
	PartLabel
	PartValue
)

// String implements fmt.Stringer.
func (p Part) String() string {
	switch p {
	case PartHeader:
		return "header"
	case PartLabel:
		return "label"
	case PartValue:
		return "value"
	}
	return fmt.Sprintf("Part(%d)", uint8(p))
}

// Op describes a single disk operation on the sector at Addr. Each part has
// an action and, for Read/Check/Write, a caller-owned buffer. Nil buffers are
// only legal with action None.
type Op struct {
	Addr VDA

	Header Action
	Label  Action
	Value  Action

	HeaderData *[HeaderWords]Word
	LabelData  *[LabelWords]Word
	ValueData  *[PageWords]Word

	// Probe marks an operation whose caller asks only whether its checks
	// pass, as the hint ladder does of a hint it may drop: a failed check
	// returns errProbeCheck, which IsCheck recognizes, instead of building
	// a *CheckError. The drive's statistics and trace are the same either
	// way.
	Probe bool
}

// errProbeCheck is a failed check of a Probe operation. It carries no
// detail and costs no allocation.
var errProbeCheck = errors.New("disk: check failed")

// CheckError reports a failed check action: the operation was aborted at the
// given part and word, before any later action ran.
type CheckError struct {
	Addr     VDA
	Part     Part
	WordIdx  int
	Expected Word
	OnDisk   Word
}

// Error implements error.
func (e *CheckError) Error() string {
	return fmt.Sprintf("disk: check failed at %d %s word %d: expected %#04x, disk has %#04x",
		e.Addr, e.Part, e.WordIdx, e.Expected, e.OnDisk)
}

// Errors returned by Drive.Do.
var (
	// ErrBadSector reports a permanently unreadable sector (fault injection
	// or a scavenger-retired page).
	ErrBadSector = errors.New("disk: unrecoverable sector error")
	// ErrCrashed reports that the simulated machine lost power mid-write;
	// every subsequent write is suppressed until ClearCrash.
	ErrCrashed = errors.New("disk: simulated crash: write suppressed")
	// ErrAddress reports an out-of-range virtual disk address.
	ErrAddress = errors.New("disk: address out of range")
	// ErrBadOp reports a malformed operation (missing buffer, or a write
	// that does not continue through the rest of the sector).
	ErrBadOp = errors.New("disk: malformed operation")
)

// IsCheck reports whether err is a check failure, the expected outcome when
// a hint proves stale. It walks the wrap chain as errors.As does — Unwrap()
// error and Unwrap() []error, depth first — but without errors.As's target,
// which would move to the heap on every call: a stale hint must not cost
// garbage. (No error type here has an As method, the one errors.As rule it
// skips.)
func IsCheck(err error) bool {
	for err != nil {
		if err == errProbeCheck {
			return true
		}
		switch e := err.(type) {
		case *CheckError:
			return true
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, err := range e.Unwrap() {
				if IsCheck(err) {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// Stats counts drive activity. Revolutions is the total simulated time spent
// divided by the revolution time, the unit the paper uses for the cost of
// allocation and freeing.
type Stats struct {
	Ops       int64
	Chains    int64
	Seeks     int64
	Reads     int64
	Writes    int64
	Checks    int64
	CheckFail int64
	// CrashedWrites counts write actions lost to the simulated power
	// failure; TornWrites counts the subset that landed garbled mid-sector
	// instead of being suppressed cleanly (at most one per crash).
	CrashedWrites int64
	TornWrites    int64
	Busy          time.Duration
}

// Revolutions reports total busy time in units of disk revolutions.
func (s Stats) Revolutions(g Geometry) float64 {
	return float64(s.Busy) / float64(g.RevTime)
}

// sector is the in-memory image of one disk sector. vcrc is a checksum of
// the value words, maintained from NewDrive on by every disciplined write
// (Write actions, image load) and deliberately left stale by the fault
// injectors: a mismatch found on a later read means damage happened outside
// the label-checked write path. Only the flight recorder and the audit's
// PeekVCRC read it — detection never changes an operation's outcome.
type sector struct {
	header [HeaderWords]Word
	label  [LabelWords]Word
	value  [PageWords]Word
	vcrc   Word
	bad    bool // fault injection: unrecoverable
}

// formatted is the sector at addr as low-level formatting leaves it: a
// header naming the pack and the address, the free-page label and the
// all-ones value. A free page is known by its label alone (§3.3), so every
// never-written sector reads as this pattern, and its checksum is the
// constant onesCRC.
func formatted(pack Word, addr VDA) sector {
	return sector{
		header: Header{Pack: pack, Addr: addr}.Words(),
		label:  freeLabelWords,
		value:  onesValue,
		vcrc:   onesCRC,
	}
}

// valueCRC folds the value words into one checksum word (rotate-and-xor,
// order-sensitive so transposed words are caught too): c = rotl(c, 1) ^ w
// over the words in order.
//
// The fold is linear, so word i of n contributes rotl(w_i, (n-1-i) mod 16)
// and words sixteen apart rotate alike. Whole 16-word blocks are therefore
// XORed into sixteen accumulators (four words to a 64-bit lane, so a block
// is four loads), each accumulator is rotated once, and only the tail is
// folded serially.
func valueCRC(v []Word) Word {
	var a0, a1, a2, a3 uint64
	full := len(v) &^ 15
	for i := 0; i < full; i += 16 {
		b := (*[16]Word)(v[i : i+16])
		a0 ^= uint64(b[0]) | uint64(b[1])<<16 | uint64(b[2])<<32 | uint64(b[3])<<48
		a1 ^= uint64(b[4]) | uint64(b[5])<<16 | uint64(b[6])<<32 | uint64(b[7])<<48
		a2 ^= uint64(b[8]) | uint64(b[9])<<16 | uint64(b[10])<<32 | uint64(b[11])<<48
		a3 ^= uint64(b[12]) | uint64(b[13])<<16 | uint64(b[14])<<32 | uint64(b[15])<<48
	}
	// Block word j sits in lane j/4 at bits 16*(j%4) and rotates by 15-j.
	var c Word
	for k, lane := range [4]uint64{a0, a1, a2, a3} {
		for m := 0; m < 4; m++ {
			c ^= bits.RotateLeft16(Word(lane>>(16*m)), 15-4*k-m)
		}
	}
	for _, w := range v[full:] {
		c = c<<1 | c>>15
		c ^= w
	}
	return c
}

// ValueCRC is the drive's per-sector value checksum, exported so higher
// layers (the cluster audit protocol) fold page contents with exactly the
// fold the flight recorder verifies — a digest disagreement between replicas
// then means the same thing as a KindCRCMismatch on one of them.
func ValueCRC(v []Word) Word { return valueCRC(v) }

// onesCRC is the checksum of the all-ones value every never-written sector
// holds.
var onesCRC = valueCRC(onesValue[:])

// Drive is the standard disk object: a simulated moving-head drive holding
// one removable pack. It implements Device. A Drive is safe for concurrent
// use, although the modelled machine is single-user.
type Drive struct {
	mu     sync.Mutex
	geom   Geometry
	clock  *sim.Clock
	pack   Word
	curCyl int
	stats  Stats

	// The pack is stored sparsely. units[i] holds the sectors of cylinder
	// i, and stays nil until one of them is first written (touch); a
	// sector of a nil unit holds the format pattern (formatted). Host
	// layout only: where a sector's words live charges no simulated time.
	units   [][]sector
	unit    int // sectors per unit: one cylinder
	nsector int

	// rec is the system's flight recorder; nil means tracing is off and
	// every emission site pays one branch. The recorder is a lock-order
	// leaf, so emitting under d.mu is safe.
	rec *trace.Recorder

	// crashAfterWrites, when >= 0, counts down on each write action; when it
	// reaches zero the drive behaves as if power failed: the write and all
	// later ones are lost and ErrCrashed is returned.
	crashAfterWrites int64
	crashed          bool

	// tornCrash selects the torn flavour of the armed crash: the write the
	// power failure catches lands garbled mid-sector instead of being
	// suppressed cleanly, and its checksum goes stale — what a real head
	// drop leaves on the platter.
	tornCrash bool

	// writeSeq numbers every write action ever asked of the drive,
	// including ones suppressed after a crash; crashAt records the sequence
	// number of the write the crash destroyed (0 = the crash has not fired).
	writeSeq int64
	crashAt  int64
}

// Device is the abstract disk object of §2: anything that can perform
// sector operations. The operating system's own file and stream packages are
// written against Device so that "a program using a large non-standard disk"
// can supply its own implementation and still use the standard packages
// (§5.2).
type Device interface {
	// Do performs one sector operation, advancing simulated time.
	Do(op *Op) error
	// Geometry describes the device's shape and timing.
	Geometry() Geometry
	// Pack returns the mounted pack's number, recorded in sector headers.
	Pack() Word
	// Clock returns the virtual clock the device advances.
	Clock() *sim.Clock
}

var _ Device = (*Drive)(nil)

// NewDrive creates a drive with the given geometry holding a freshly
// low-level-formatted pack: every sector carries a correct header and the
// free-page label/value pattern. The clock may be shared with other devices;
// if nil, a new clock is created. Formatting stores nothing: a sector gets
// storage of its own on its first write.
func NewDrive(g Geometry, pack Word, clock *sim.Clock) (*Drive, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = sim.NewClock()
	}
	return &Drive{
		geom:             g,
		clock:            clock,
		pack:             pack,
		units:            make([][]sector, g.Cylinders),
		unit:             g.Heads * g.SectorsPerTrack,
		nsector:          g.NSectors(),
		crashAfterWrites: -1,
	}, nil
}

// at returns the stored sector at addr, or nil while the sector has never
// been written and still holds the format pattern. addr is in range.
func (d *Drive) at(addr VDA) *sector {
	u := d.units[int(addr)/d.unit]
	if u == nil {
		return nil
	}
	return &u[int(addr)%d.unit]
}

// touch returns the storage of the sector at addr, materializing its unit
// in the format pattern on first use. Every path that changes a sector
// goes through touch. addr is in range.
func (d *Drive) touch(addr VDA) *sector {
	i := int(addr) / d.unit
	u := d.units[i]
	if u == nil {
		u = make([]sector, d.unit)
		for j := range u {
			//altovet:allow wordwidth the sector is on the pack, and Validate keeps NSectors within a VDA
			u[j] = formatted(d.pack, VDA(i*d.unit+j))
		}
		d.units[i] = u
	}
	return &u[int(addr)%d.unit]
}

// SetRecorder attaches a flight recorder to the drive (nil detaches). Every
// layer holding a Device reaches the recorder through TraceRecorder, so the
// drive is the distribution point for tracing across the storage stack.
func (d *Drive) SetRecorder(r *trace.Recorder) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = r
}

// PeekVCRC returns the sector's recorded value checksum without charging
// time, and whether addr is on the pack. Like PeekLabel it models examining
// the pack offline; the audit protocol uses it to tell a locally-clean copy
// (recorded checksum matches the value just read) from a rotted one,
// without a second paid read.
func (d *Drive) PeekVCRC(addr VDA) (Word, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= d.nsector {
		return 0, false
	}
	if s := d.at(addr); s != nil {
		return s.vcrc, true
	}
	return onesCRC, true
}

// TraceRecorder implements trace.Source.
func (d *Drive) TraceRecorder() *trace.Recorder {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rec
}

// Geometry implements Device.
func (d *Drive) Geometry() Geometry { return d.geom }

// Pack implements Device.
func (d *Drive) Pack() Word { return d.pack }

// Clock implements Device.
func (d *Drive) Clock() *sim.Clock { return d.clock }

// Stats returns a snapshot of accumulated drive statistics.
func (d *Drive) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the accumulated statistics.
func (d *Drive) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// validate checks the static shape of an operation.
func validate(op *Op) error {
	type part struct {
		a   Action
		buf bool
	}
	parts := [3]part{
		{op.Header, op.HeaderData != nil},
		{op.Label, op.LabelData != nil},
		{op.Value, op.ValueData != nil},
	}
	writing := false
	for i, p := range parts {
		if p.a != None && !p.buf {
			return fmt.Errorf("%w: %s action %v without buffer", ErrBadOp, Part(i), p.a)
		}
		if p.a > Write {
			return fmt.Errorf("%w: unknown action %d", ErrBadOp, p.a)
		}
		if writing && p.a != Write {
			return fmt.Errorf("%w: write must continue through the rest of the sector (%s is %v)",
				ErrBadOp, Part(i), p.a)
		}
		if p.a == Write {
			writing = true
		}
	}
	return nil
}

// Do implements Device. It advances the clock by the seek, rotational-latency
// and transfer time the operation costs, then performs the actions in
// rotational order (header, label, value). A failed check aborts the
// remaining actions.
func (d *Drive) Do(op *Op) error {
	if err := validate(op); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	d.stats.Ops++
	start := d.clock.Now()
	err := d.do(op)
	if d.rec != nil {
		d.traceOp(op, start, err)
	}
	return err
}

// do performs the operation proper. d.mu is held.
func (d *Drive) do(op *Op) error {
	if int(op.Addr) >= d.nsector {
		return fmt.Errorf("%w: %d (disk has %d sectors)", ErrAddress, op.Addr, d.nsector)
	}

	d.advanceTo(op.Addr)

	s := d.at(op.Addr)
	if s == nil && op.Value == Write && !d.crashed {
		// A write continues through the value (validate), so any op that
		// may change the sector writes its value; after a crash every
		// write is suppressed and the sector stays as it is.
		s = d.touch(op.Addr)
	}
	var header, label, value []Word
	if s != nil {
		if s.bad {
			return fmt.Errorf("%w: sector %d", ErrBadSector, op.Addr)
		}
		header, label, value = s.header[:], s.label[:], s.value[:]
	} else {
		// Never written: the parts are the format pattern, read in place.
		// No action of this op stores into them.
		hdr, lbl := Header{Pack: d.pack, Addr: op.Addr}.Words(), freeLabelWords
		header, label, value = hdr[:], lbl[:], onesValue[:]
	}

	if err := d.doPart(s, op, PartHeader, op.Header, header, slice2(op.HeaderData)); err != nil {
		return err
	}
	if err := d.doPart(s, op, PartLabel, op.Label, label, slice7(op.LabelData)); err != nil {
		return err
	}
	return d.doPart(s, op, PartValue, op.Value, value, slice256(op.ValueData))
}

// Outcome codes carried in a KindDiskOp event's second argument.
const (
	opOK int64 = iota
	opCheckFail
	opBadSector
	opCrashed
	opError
)

// traceOp emits the operation-level span and failure events. d.mu is held
// and d.rec is known non-nil.
func (d *Drive) traceOp(op *Op, start time.Duration, err error) {
	now := d.clock.Now()
	outcome := opOK
	switch {
	case err == nil:
	case IsCheck(err):
		outcome = opCheckFail
	case errors.Is(err, ErrBadSector):
		outcome = opBadSector
		d.rec.Emit(now, trace.KindBadSector, "", int64(op.Addr), outcome)
		d.rec.Add(cBadSector, 1)
	case errors.Is(err, ErrCrashed):
		outcome = opCrashed
	default:
		outcome = opError
	}
	d.rec.EmitSpan(start, now-start, trace.KindDiskOp, opName(op), int64(op.Addr), outcome)
	d.rec.Add(cOps, 1)
	d.rec.Observe(hOpRevs, float64(now-start)/float64(d.geom.RevTime))
}

// opNames precomputes the "header/label/value" action triple for every
// operation shape, so tracing an op does not build a string per sector.
// Index: 16*header + 4*label + value; validate has already rejected any
// action above Write.
var opNames = func() (t [64]string) {
	for h := None; h <= Write; h++ {
		for l := None; l <= Write; l++ {
			for v := None; v <= Write; v++ {
				t[16*uint8(h)+4*uint8(l)+uint8(v)] = h.String() + "/" + l.String() + "/" + v.String()
			}
		}
	}
	return t
}()

func opName(op *Op) string {
	i := 16*uint8(op.Header) + 4*uint8(op.Label) + uint8(op.Value)
	if int(i) < len(opNames) {
		return opNames[i]
	}
	return "?"
}

func slice2(p *[HeaderWords]Word) []Word {
	if p == nil {
		return nil
	}
	return p[:]
}

func slice7(p *[LabelWords]Word) []Word {
	if p == nil {
		return nil
	}
	return p[:]
}

func slice256(p *[PageWords]Word) []Word {
	if p == nil {
		return nil
	}
	return p[:]
}

// doPart applies one of op's actions to one sector part. s is the sector's
// storage, or nil when dst is the format pattern of a never-written sector:
// its checksum is the constant onesCRC, so reading it never mismatches, and
// no write reaches it. d.mu is held.
func (d *Drive) doPart(s *sector, op *Op, part Part, a Action, dst, mem []Word) error {
	addr := op.Addr
	switch a {
	case None:
		return nil
	case Read:
		d.stats.Reads++
		copy(mem, dst)
		if part == PartValue && d.rec != nil && s != nil {
			d.checkValueCRC(addr, s.vcrc, dst)
		}
		return nil
	case Check:
		d.stats.Checks++
		for i := range mem {
			if mem[i] == 0 {
				mem[i] = dst[i] // wildcard: pattern match fills in the disk word
				continue
			}
			if mem[i] != dst[i] {
				d.stats.CheckFail++
				if d.rec != nil {
					d.rec.Emit(d.clock.Now(), trace.KindCheckFail, part.String(), int64(addr), int64(i))
					d.rec.Add(cCheckFail, 1)
				}
				if op.Probe {
					return errProbeCheck
				}
				return &CheckError{Addr: addr, Part: part, WordIdx: i, Expected: mem[i], OnDisk: dst[i]}
			}
		}
		if part == PartValue && d.rec != nil && s != nil {
			d.checkValueCRC(addr, s.vcrc, dst)
		}
		return nil
	case Write:
		d.writeSeq++
		if d.crashed {
			d.stats.CrashedWrites++
			if d.rec != nil {
				d.rec.Emit(d.clock.Now(), trace.KindCrashWrite, part.String(), int64(addr), d.writeSeq)
				d.rec.Add(cWriteCrashed, 1)
			}
			return ErrCrashed
		}
		if d.crashAfterWrites == 0 {
			d.crashed = true
			d.crashAt = d.writeSeq
			d.stats.CrashedWrites++
			if d.tornCrash {
				// The head was over the sector when power failed: the part
				// in flight lands garbled — neither the old words nor the
				// new — and the recorded checksum is deliberately left
				// stale, so a later read surfaces the damage to the flight
				// recorder as KindCRCMismatch.
				tearInto(dst, mem, addr, part)
				d.stats.TornWrites++
				if d.rec != nil {
					d.rec.Add(cWriteTorn, 1)
				}
			}
			if d.rec != nil {
				d.rec.Emit(d.clock.Now(), trace.KindCrashWrite, part.String(), int64(addr), d.writeSeq)
				d.rec.Add(cWriteCrashed, 1)
			}
			return ErrCrashed
		}
		if d.crashAfterWrites > 0 {
			d.crashAfterWrites--
		}
		d.stats.Writes++
		copy(dst, mem)
		if part == PartValue {
			s.vcrc = valueCRC(dst)
		}
		return nil
	}
	return fmt.Errorf("%w: action %d", ErrBadOp, a)
}

// tearInto deposits what a torn write leaves on the platter: the first words
// of the new data, then garbage from where the transfer stopped. The garble
// is a pure function of the buffer, the sector address and the word index,
// so a replayed run tears identically — the crash explorer depends on it.
func tearInto(dst, mem []Word, addr VDA, part Part) {
	cut := len(dst) / 2
	copy(dst[:cut], mem[:cut])
	for i := cut; i < len(dst); i++ {
		dst[i] = mem[i] ^ 0xA5A5 ^ Word((i*7)&0xFFFF) ^ Word(addr) ^ Word(part)<<13
	}
}

// The header part of a sector is written at format time only; sectors are
// addressed by position, so a Read or Check of the header serves to verify
// the pack number and that the head really reached the sector it sought.

// advanceTo charges the clock for reaching the sector at addr: a seek if the
// cylinder differs, then rotational delay until the sector's slot arrives,
// then one sector transfer time. d.mu is held.
func (d *Drive) advanceTo(addr VDA) {
	g := d.geom
	cyl, _, sect := g.Locate(addr)
	start := d.clock.Now()
	t := start
	if cyl != d.curCyl {
		from := d.curCyl
		t += g.SeekTime(cyl - d.curCyl)
		d.curCyl = cyl
		d.stats.Seeks++
		if d.rec != nil {
			d.rec.EmitSpan(start, t-start, trace.KindSeek, "", int64(from), int64(cyl))
			d.rec.Add(cSeeks, 1)
		}
	}
	// Rotational position is a global property of the spindle: the slot that
	// is under the heads at time t.
	st := g.SectorTime()
	rev := g.RevTime
	pos := t % rev
	target := time.Duration(sect) * st
	wait := target - pos
	if wait < 0 {
		wait += rev
	}
	if d.rec != nil && wait > 0 {
		d.rec.EmitSpan(t, wait, trace.KindRotate, "", int64(sect), int64(addr))
	}
	t += wait + st // wait for the slot, then transfer the sector
	d.clock.Advance(t - start)
	d.stats.Busy += t - start
}

// checkValueCRC compares the sector's stored checksum with one recomputed
// from the value just read. A mismatch means the value changed outside the
// disciplined write path — a fault injector, modelling media decay or a wild
// write — and is reported to the recorder only; the read itself still
// succeeds, exactly as on the real hardware, where such damage surfaces
// later as inconsistency. d.mu is held and d.rec is known non-nil.
func (d *Drive) checkValueCRC(addr VDA, vcrc Word, dst []Word) {
	if valueCRC(dst) != vcrc {
		d.rec.Emit(d.clock.Now(), trace.KindCRCMismatch, "value", int64(addr), opError)
		d.rec.Add(cCrcMismatch, 1)
	}
}

// PeekLabel returns the raw label words of a sector without charging time.
// It exists for tests and offline tools only; the operating system proper
// always pays for its accesses.
func (d *Drive) PeekLabel(addr VDA) ([LabelWords]Word, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= d.nsector {
		return [LabelWords]Word{}, false
	}
	if s := d.at(addr); s != nil {
		return s.label, true
	}
	return freeLabelWords, true
}
