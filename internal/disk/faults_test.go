package disk

import (
	"errors"
	"testing"

	"altoos/internal/sim"
	"altoos/internal/trace"
)

// Every injected fault must surface in the flight recorder: the injectors
// bypass the disciplined write path, so the recorder's counted label-check,
// bad-sector, crash and CRC events are how a trace of a damaged run explains
// itself. Each subtest injures a fresh drive one way and asserts the
// corresponding event kind and counter appear.

// newTracedDrive builds a drive with a recorder attached and one allocated
// page at addr 7 to injure.
func newTracedDrive(t *testing.T) (*Drive, *trace.Recorder) {
	t.Helper()
	d := newTestDrive(t)
	rec := trace.New(1024)
	d.SetRecorder(rec)
	var v [PageWords]Word
	fill(&v, 0x300)
	if err := Allocate(d, 7, testLabel(0), &v); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	return d, rec
}

// countKind tallies recorded events of one kind.
func countKind(rec *trace.Recorder, k trace.Kind) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestMarkBadSurfacesAsBadSectorEvent(t *testing.T) {
	d, rec := newTracedDrive(t)
	d.MarkBad(7)
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); !errors.Is(err, ErrBadSector) {
		t.Fatalf("read of bad sector: got %v, want ErrBadSector", err)
	}
	if n := countKind(rec, trace.KindBadSector); n == 0 {
		t.Error("no KindBadSector event recorded")
	}
	if c := rec.Counter("disk.bad_sector"); c == 0 {
		t.Error("disk.bad_sector counter not incremented")
	}
}

func TestZapLabelSurfacesAsCheckFailEvent(t *testing.T) {
	d, rec := newTracedDrive(t)
	var junk [LabelWords]Word
	for i := range junk {
		junk[i] = 0xDEAD
	}
	d.ZapLabel(7, junk)
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); !IsCheck(err) {
		t.Fatalf("read after ZapLabel: got %v, want a check error", err)
	}
	if n := countKind(rec, trace.KindCheckFail); n == 0 {
		t.Error("no KindCheckFail event recorded")
	}
	if c := rec.Counter("disk.check.fail"); c == 0 {
		t.Error("disk.check.fail counter not incremented")
	}
}

func TestCorruptLabelSurfacesAsCheckFailEvent(t *testing.T) {
	d, rec := newTracedDrive(t)
	d.CorruptLabel(7, sim.NewRand(1))
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); !IsCheck(err) {
		t.Fatalf("read after CorruptLabel: got %v, want a check error", err)
	}
	if n := countKind(rec, trace.KindCheckFail); n == 0 {
		t.Error("no KindCheckFail event recorded")
	}
	if c := rec.Counter("disk.check.fail"); c == 0 {
		t.Error("disk.check.fail counter not incremented")
	}
}

func TestZapValueSurfacesAsCRCMismatchEvent(t *testing.T) {
	d, rec := newTracedDrive(t)
	var junk [PageWords]Word
	fill(&junk, 0x666)
	d.ZapValue(7, junk)
	// The label is intact, so the read succeeds — silent data damage. The
	// recorder is the only place it shows: the sector's value checksum no
	// longer matches what the disciplined path last wrote.
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); err != nil {
		t.Fatalf("read after ZapValue: %v (the label is intact; the read must succeed)", err)
	}
	if n := countKind(rec, trace.KindCRCMismatch); n == 0 {
		t.Error("no KindCRCMismatch event recorded for silently zapped value")
	}
	if c := rec.Counter("disk.crc.mismatch"); c == 0 {
		t.Error("disk.crc.mismatch counter not incremented")
	}
}

func TestCorruptValueSurfacesAsCRCMismatchEvent(t *testing.T) {
	d, rec := newTracedDrive(t)
	d.CorruptValue(7, sim.NewRand(2))
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); err != nil {
		t.Fatalf("read after CorruptValue: %v (the label is intact; the read must succeed)", err)
	}
	if n := countKind(rec, trace.KindCRCMismatch); n == 0 {
		t.Error("no KindCRCMismatch event recorded for corrupted value")
	}
	if c := rec.Counter("disk.crc.mismatch"); c == 0 {
		t.Error("disk.crc.mismatch counter not incremented")
	}
}

// TestChecksumsLiveFromNewDrive: value checksums are kept from NewDrive on,
// not from the first recorder attach, so damage done while the drive was
// untraced still shows once a recorder is attached.
func TestChecksumsLiveFromNewDrive(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	fill(&v, 0x1234) // a checksum other than onesCRC, a fresh sector's
	if err := Allocate(d, 7, testLabel(0), &v); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	junk := v
	junk[5] ^= 0x8000
	d.ZapValue(7, junk)
	if rec, ok := d.PeekVCRC(7); !ok || rec != ValueCRC(v[:]) {
		t.Errorf("PeekVCRC(7) = %#04x %v, want %#04x true, the checksum of the value written before the zap", rec, ok, ValueCRC(v[:]))
	}
	rec := trace.New(1024)
	d.SetRecorder(rec)
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); err != nil {
		t.Fatalf("ReadValue: %v", err)
	}
	if n := countKind(rec, trace.KindCRCMismatch); n != 1 {
		t.Errorf("%d KindCRCMismatch events for a value zapped before the recorder attached, want 1", n)
	}
}

func TestDisciplinedRewriteClearsCRCMismatch(t *testing.T) {
	d, rec := newTracedDrive(t)
	var junk [PageWords]Word
	fill(&junk, 0x666)
	d.ZapValue(7, junk)
	// Writing through the checked path refreshes the checksum: the damage
	// has been overwritten, so later reads must be quiet again. The page
	// folds to 0xf0ff, not to a fresh sector's checksum, so a missing
	// refresh shows.
	var v [PageWords]Word
	fill(&v, 0x1234)
	if err := WriteValue(d, 7, testLabel(0), &v); err != nil {
		t.Fatalf("WriteValue: %v", err)
	}
	before := rec.Counter("disk.crc.mismatch")
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); err != nil {
		t.Fatalf("ReadValue: %v", err)
	}
	if after := rec.Counter("disk.crc.mismatch"); after != before {
		t.Errorf("read after disciplined rewrite still reports CRC mismatch (%d -> %d)", before, after)
	}
}

func TestCrashSurfacesAsCrashWriteEvent(t *testing.T) {
	d, rec := newTracedDrive(t)
	d.CrashAfterWrites(0)
	var v [PageWords]Word
	fill(&v, 0x500)
	if err := WriteValue(d, 7, testLabel(0), &v); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: got %v, want ErrCrashed", err)
	}
	if n := countKind(rec, trace.KindCrashWrite); n == 0 {
		t.Error("no KindCrashWrite event recorded")
	}
	if c := rec.Counter("disk.write.crashed"); c == 0 {
		t.Error("disk.write.crashed counter not incremented")
	}
}

func TestTornCrashGarblesInFlightWrite(t *testing.T) {
	d, rec := newTracedDrive(t)
	d.SetTornCrash(true)
	d.CrashAfterWrites(0)
	var v [PageWords]Word
	fill(&v, 0x500)
	if err := WriteValue(d, 7, testLabel(0), &v); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: got %v, want ErrCrashed", err)
	}
	d.ClearCrash()
	s, ok := d.peek(7)
	if !ok {
		t.Fatal("peek failed")
	}
	var old [PageWords]Word
	fill(&old, 0x300) // what newTracedDrive allocated
	if s.value == old {
		t.Error("torn write left the old value intact; it must land garbled")
	}
	if s.value == v {
		t.Error("torn write landed the complete new value; it must land garbled")
	}
	if c := rec.Counter("disk.write.torn"); c != 1 {
		t.Errorf("disk.write.torn = %d, want 1", c)
	}
	if st := d.Stats(); st.TornWrites != 1 || st.CrashedWrites != 1 {
		t.Errorf("Stats torn/crashed = %d/%d, want 1/1", st.TornWrites, st.CrashedWrites)
	}
	// The label is intact, so a restarted machine reads the page without
	// complaint — the damage shows only as a stale value checksum.
	var got [PageWords]Word
	if err := ReadValue(d, 7, testLabel(0), &got); err != nil {
		t.Fatalf("read after torn crash: %v (the label is intact; the read must succeed)", err)
	}
	if c := rec.Counter("disk.crc.mismatch"); c == 0 {
		t.Error("torn value read fired no CRC mismatch; the checksum must be left stale")
	}
}

func TestTornCrashIsDeterministic(t *testing.T) {
	tear := func() [PageWords]Word {
		d := newTestDrive(t)
		var v0 [PageWords]Word
		fill(&v0, 0x300)
		if err := Allocate(d, 7, testLabel(0), &v0); err != nil {
			t.Fatal(err)
		}
		d.SetTornCrash(true)
		d.CrashAfterWrites(0)
		var v [PageWords]Word
		fill(&v, 0x500)
		if err := WriteValue(d, 7, testLabel(0), &v); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn write: got %v, want ErrCrashed", err)
		}
		s, _ := d.peek(7)
		return s.value
	}
	if tear() != tear() {
		t.Error("two identical torn runs left different sector contents; the crash explorer needs replayable tears")
	}
}

func TestCrashAtReportsWriteIndex(t *testing.T) {
	d := newTestDrive(t)
	if _, fired := d.CrashAt(); fired {
		t.Fatal("CrashAt fired before any crash")
	}
	// Allocate is two write actions (label, then value); arming after one
	// write makes the value write — lifetime write action #2 — the one the
	// power failure eats.
	d.CrashAfterWrites(1)
	var v [PageWords]Word
	fill(&v, 0x100)
	if err := Allocate(d, 7, testLabel(0), &v); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Allocate under crash: got %v, want ErrCrashed", err)
	}
	if at, fired := d.CrashAt(); !fired || at != 2 {
		t.Errorf("CrashAt = %d, %v; want 2, true", at, fired)
	}
	d.ClearCrash()
	if at, fired := d.CrashAt(); !fired || at != 2 {
		t.Errorf("after ClearCrash: CrashAt = %d, %v; want 2, true (kept for post-mortem reporting)", at, fired)
	}
	d.CrashAfterWrites(5)
	if _, fired := d.CrashAt(); fired {
		t.Error("re-arming must reset CrashAt")
	}
}

func TestCrashWriteEventCarriesWriteIndex(t *testing.T) {
	d, rec := newTracedDrive(t)
	d.CrashAfterWrites(0)
	var v [PageWords]Word
	fill(&v, 0x500)
	if err := WriteValue(d, 7, testLabel(0), &v); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write under crash: got %v, want ErrCrashed", err)
	}
	at, fired := d.CrashAt()
	if !fired {
		t.Fatal("crash did not fire")
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindCrashWrite && ev.A1 != at {
			t.Errorf("crash-write event write_idx = %d, want %d", ev.A1, at)
		}
	}
}
