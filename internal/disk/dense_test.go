package disk

// The dense drive: the Drive as it was before sparse packs, every sector
// stored, filled and checksummed at format time. It survives only here, as the oracle the sparse drive is
// checked against (TestSparseMatchesDense, FuzzDriveTwin): the same
// operations on both must give the same results, statistics, clock
// readings, trace events, peeks and images.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

type denseDrive struct {
	mu      sync.Mutex
	geom    Geometry
	clock   *sim.Clock
	pack    Word
	sectors []sector
	curCyl  int
	stats   Stats

	rec *trace.Recorder

	crashAfterWrites int64
	crashed          bool

	tornCrash bool

	writeSeq int64
	crashAt  int64
}

func newDenseDrive(g Geometry, pack Word, clock *sim.Clock) (*denseDrive, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = sim.NewClock()
	}
	d := &denseDrive{
		geom:             g,
		clock:            clock,
		pack:             pack,
		sectors:          make([]sector, g.NSectors()),
		crashAfterWrites: -1,
	}
	for i := range d.sectors {
		d.sectors[i].header = Header{Pack: pack, Addr: VDA(i)}.Words()
		d.sectors[i].label = freeLabelWords
		d.sectors[i].value = onesValue // block copy: this loop is format time
		d.sectors[i].vcrc = valueCRC(d.sectors[i].value[:])
	}
	return d, nil
}

func (d *denseDrive) SetRecorder(r *trace.Recorder) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = r
}

func (d *denseDrive) PeekVCRC(addr VDA) (Word, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= len(d.sectors) {
		return 0, false
	}
	return d.sectors[addr].vcrc, true
}

func (d *denseDrive) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *denseDrive) Do(op *Op) error {
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

func (d *denseDrive) do(op *Op) error {
	if int(op.Addr) >= len(d.sectors) {
		return fmt.Errorf("%w: %d (disk has %d sectors)", ErrAddress, op.Addr, len(d.sectors))
	}

	d.advanceTo(op.Addr)

	s := &d.sectors[op.Addr]
	if s.bad {
		return fmt.Errorf("%w: sector %d", ErrBadSector, op.Addr)
	}

	if err := d.doPart(op.Addr, PartHeader, op.Header, s.header[:], slice2(op.HeaderData)); err != nil {
		return err
	}
	if err := d.doPart(op.Addr, PartLabel, op.Label, s.label[:], slice7(op.LabelData)); err != nil {
		return err
	}
	return d.doPart(op.Addr, PartValue, op.Value, s.value[:], slice256(op.ValueData))
}

func (d *denseDrive) traceOp(op *Op, start time.Duration, err error) {
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

func (d *denseDrive) doPart(addr VDA, part Part, a Action, dst, mem []Word) error {
	switch a {
	case None:
		return nil
	case Read:
		d.stats.Reads++
		copy(mem, dst)
		if part == PartValue && d.rec != nil {
			d.checkValueCRC(addr, dst)
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
				return &CheckError{Addr: addr, Part: part, WordIdx: i, Expected: mem[i], OnDisk: dst[i]}
			}
		}
		if part == PartValue && d.rec != nil {
			d.checkValueCRC(addr, dst)
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
			d.sectors[addr].vcrc = valueCRC(dst)
		}
		return nil
	}
	return fmt.Errorf("%w: action %d", ErrBadOp, a)
}

func (d *denseDrive) advanceTo(addr VDA) {
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

func (d *denseDrive) checkValueCRC(addr VDA, dst []Word) {
	if valueCRC(dst) != d.sectors[addr].vcrc {
		d.rec.Emit(d.clock.Now(), trace.KindCRCMismatch, "value", int64(addr), opError)
		d.rec.Add(cCrcMismatch, 1)
	}
}

func (d *denseDrive) peek(addr VDA) (sector, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= len(d.sectors) {
		return sector{}, false
	}
	return d.sectors[addr], true
}

func (d *denseDrive) PeekLabel(addr VDA) ([LabelWords]Word, bool) {
	s, ok := d.peek(addr)
	return s.label, ok
}

func (d *denseDrive) DoChain(ops []Op, mode ChainMode) []error {
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

func (d *denseDrive) schedule(ops []Op) {
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
			break
		}
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

func (d *denseDrive) MarkBad(addr VDA) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < len(d.sectors) {
		d.sectors[addr].bad = true
	}
}

func (d *denseDrive) HealBad(addr VDA) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < len(d.sectors) {
		d.sectors[addr].bad = false
	}
}

func (d *denseDrive) ZapLabel(addr VDA, w [LabelWords]Word) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < len(d.sectors) {
		d.sectors[addr].label = w
	}
}

func (d *denseDrive) ZapValue(addr VDA, v [PageWords]Word) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) < len(d.sectors) {
		d.sectors[addr].value = v
	}
}

func (d *denseDrive) CorruptLabel(addr VDA, r *sim.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= len(d.sectors) {
		return
	}
	lbl := &d.sectors[addr].label
	for i := 0; i < 3; i++ {
		w := r.Intn(LabelWords)
		lbl[w] ^= 1 << uint(r.Intn(16))
	}
}

func (d *denseDrive) CorruptValue(addr VDA, r *sim.Rand) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(addr) >= len(d.sectors) {
		return
	}
	v := &d.sectors[addr].value
	for i := 0; i < 8; i++ {
		w := r.Intn(PageWords)
		v[w] ^= 1 << uint(r.Intn(16))
	}
}

func (d *denseDrive) Rot(r *sim.Rand, n int, eligible func(Label) bool) []VDA {
	d.mu.Lock()
	defer d.mu.Unlock()
	var cand []VDA
	for i := range d.sectors {
		w := d.sectors[i].label
		if !InUse(w) {
			continue
		}
		if eligible != nil && !eligible(LabelFromWords(w)) {
			continue
		}
		cand = append(cand, VDA(i))
	}
	if n > len(cand) {
		n = len(cand)
	}
	struck := make([]VDA, 0, n)
	for k := 0; k < n; k++ {
		pick := k + r.Intn(len(cand)-k)
		cand[k], cand[pick] = cand[pick], cand[k]
		addr := cand[k]
		v := &d.sectors[addr].value
		for i := 0; i < 8; i++ {
			w := r.Intn(PageWords)
			v[w] ^= 1 << uint(r.Intn(16))
		}
		struck = append(struck, addr)
	}
	return struck
}

func (d *denseDrive) CrashAfterWrites(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAfterWrites = n
	if n >= 0 {
		d.crashed = false
		d.crashAt = 0
	}
}

func (d *denseDrive) SetTornCrash(torn bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornCrash = torn
}

func (d *denseDrive) CrashAt() (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashAt, d.crashAt != 0
}

func (d *denseDrive) ClearCrash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
	d.crashAfterWrites = -1
}

func (d *denseDrive) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

func (d *denseDrive) SaveImage(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	hdr := []uint16{
		imageVersion,
		uint16(d.geom.Cylinders),
		uint16(d.geom.Heads),
		uint16(d.geom.SectorsPerTrack),
		uint16(d.geom.RevTime / time.Microsecond / 100), // units of 100us
		uint16(d.geom.SeekSettle / time.Microsecond / 100),
		uint16(d.geom.SeekPerCyl / time.Microsecond),
		d.pack,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	if err := writeString(bw, d.geom.Name); err != nil {
		return err
	}
	for i := range d.sectors {
		s := &d.sectors[i]
		if err := binary.Write(bw, binary.BigEndian, s.header); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, s.label); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, s.value); err != nil {
			return err
		}
		b := byte(0)
		if s.bad {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func loadDenseImage(r io.Reader, clock *sim.Clock) (*denseDrive, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrImage, magic)
	}
	var hdr [8]uint16
	for i := range hdr {
		if err := binary.Read(br, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrImage, err)
		}
	}
	if hdr[0] != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrImage, hdr[0])
	}
	name, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrImage, err)
	}
	g := Geometry{
		Name:            name,
		Cylinders:       int(hdr[1]),
		Heads:           int(hdr[2]),
		SectorsPerTrack: int(hdr[3]),
		RevTime:         time.Duration(hdr[4]) * 100 * time.Microsecond,
		SeekSettle:      time.Duration(hdr[5]) * 100 * time.Microsecond,
		SeekPerCyl:      time.Duration(hdr[6]) * time.Microsecond,
	}
	d, err := newDenseDrive(g, hdr[7], clock)
	if err != nil {
		return nil, err
	}
	for i := range d.sectors {
		s := &d.sectors[i]
		if err := binary.Read(br, binary.BigEndian, &s.header); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		if err := binary.Read(br, binary.BigEndian, &s.label); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		if err := binary.Read(br, binary.BigEndian, &s.value); err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: sector %d: %v", ErrImage, i, err)
		}
		s.bad = b != 0
		s.vcrc = valueCRC(s.value[:])
	}
	return d, nil
}
