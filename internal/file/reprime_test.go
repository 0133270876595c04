package file

import (
	"slices"
	"testing"
	"time"

	"altoos/internal/disk"
)

// opLog passes every operation to the drive below it and records what each
// one asked for: address, actions, probe bit and label pattern.
type opLog struct {
	disk.Device
	ops []loggedOp
}

type loggedOp struct {
	addr          disk.VDA
	label, value  disk.Action
	probe         bool
	pattern       [disk.LabelWords]disk.Word
	hasLabelWords bool
}

func (l *opLog) Do(op *disk.Op) error {
	r := loggedOp{addr: op.Addr, label: op.Label, value: op.Value, probe: op.Probe}
	if op.LabelData != nil {
		r.pattern, r.hasLabelWords = *op.LabelData, true
	}
	l.ops = append(l.ops, r)
	return l.Device.Do(op)
}

// handleState is everything a caller can observe of a handle, plus the
// flags that decide what its next access does.
type handleState struct {
	fn             FN
	leader         Leader
	name           string
	lastPN         disk.Word
	lastLen        int
	hints          []disk.VDA
	dirty, deleted bool
}

func stateOf(f *File) handleState {
	pn, n := f.LastPage()
	return handleState{
		fn: f.FN(), leader: f.Leader(), name: f.Name(), lastPN: pn, lastLen: n,
		hints: slices.Clone(f.hints), dirty: f.dirty, deleted: f.deleted,
	}
}

func (a handleState) equal(b handleState) bool {
	return a.fn == b.fn && a.leader == b.leader && a.name == b.name && a.lastPN == b.lastPN &&
		a.lastLen == b.lastLen && slices.Equal(a.hints, b.hints) && a.dirty == b.dirty && a.deleted == b.deleted
}

// twinRun is what one open did: its disk operations, the drive's and the
// file system's counters and clock afterwards, and the handle it left.
type twinRun struct {
	ops     []loggedOp
	drive   disk.Stats
	fs      Stats
	elapsed time.Duration
	state   handleState
}

// reprimeTwin builds a pack holding a 4-page target file and a prior file,
// lets prep put a handle on the prior file into some state, and then opens
// the target: with reuse, by re-priming that handle, otherwise by Open on a
// new one. When stale is set the target's full name carries a wrong leader
// address, so the open climbs the ladder to the directory lookup that
// Recovery.ResolveFV stands in for.
func reprimeTwin(t *testing.T, prep func(t *testing.T, prior *File), stale, reuse bool) twinRun {
	t.Helper()
	d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := &opLog{Device: d}
	fs, err := Format(log)
	if err != nil {
		t.Fatal(err)
	}
	target, truth := fileOfPages(t, fs, "target.file", 4)
	fs.SetRecovery(Recovery{ResolveFV: func(fv disk.FV) (disk.VDA, error) {
		if fv != target.FN().FV {
			return disk.NilVDA, ErrNotFound
		}
		return truth[0], nil
	}})
	prior, _ := fileOfPages(t, fs, "prior.file", 3)
	prep(t, prior)
	fn := target.FN()
	if stale {
		fn.Leader = truth[2]
	}

	log.ops = nil
	d.ResetStats()
	fs.ResetStats()
	start := d.Clock().Now()
	f := prior
	if reuse {
		err = fs.OpenInto(f, fn)
	} else {
		f, err = fs.Open(fn)
	}
	if err != nil {
		t.Fatal(err)
	}
	run := twinRun{ops: log.ops, drive: d.Stats(), fs: fs.Stats(), elapsed: d.Clock().Now() - start, state: stateOf(f)}
	var v [disk.PageWords]disk.Word
	for p := disk.Word(1); p <= 4; p++ {
		if _, err := f.ReadPage(p, &v); err != nil || v != pageOf(p) {
			t.Fatalf("page %d through the opened handle: %v (or wrong words)", p, err)
		}
	}
	return run
}

// TestOpenIntoIsOpen re-primes a handle that held another file in each state
// that could leak into the next open, and compares the result with a fresh
// Open of the same full name on an identical pack: the same disk operations,
// the same counters and simulated time, and the same handle.
func TestOpenIntoIsOpen(t *testing.T) {
	cases := []struct {
		name  string
		stale bool
		prep  func(t *testing.T, prior *File)
	}{
		{"hints past inline", false, func(t *testing.T, prior *File) {
			for p := disk.Word(1); int(p) < 2*inlineHints; p++ {
				prior.SetHint(p, disk.VDA(1000+int(p)))
			}
			if len(prior.hints) <= inlineHints {
				t.Fatalf("%d hints, want more than %d", len(prior.hints), inlineHints)
			}
		}},
		{"deleted", false, func(t *testing.T, prior *File) {
			if err := prior.Delete(); err != nil {
				t.Fatal(err)
			}
		}},
		{"dirty and unsynced", false, func(t *testing.T, prior *File) {
			v := pageOf(99)
			if err := prior.WritePage(prior.LastPN(), &v, disk.PageBytes); err != nil {
				t.Fatal(err)
			}
			if !prior.dirty {
				t.Fatal("the write left the leader clean")
			}
		}},
		{"renamed", false, func(t *testing.T, prior *File) {
			if err := prior.Rename("renamed.file"); err != nil {
				t.Fatal(err)
			}
			if prior.Name() != "renamed.file" {
				t.Fatalf("name %q after Rename", prior.Name())
			}
		}},
		{"stale leader hint", true, func(t *testing.T, prior *File) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := reprimeTwin(t, tc.prep, tc.stale, false)
			reused := reprimeTwin(t, tc.prep, tc.stale, true)
			if !slices.Equal(reused.ops, fresh.ops) {
				t.Errorf("re-prime issued %d ops %v; Open issued %d ops %v", len(reused.ops), reused.ops, len(fresh.ops), fresh.ops)
			}
			if reused.drive != fresh.drive || reused.fs != fresh.fs || reused.elapsed != fresh.elapsed {
				t.Errorf("re-prime: drive %+v, fs %+v, %v; Open: drive %+v, fs %+v, %v",
					reused.drive, reused.fs, reused.elapsed, fresh.drive, fresh.fs, fresh.elapsed)
			}
			if !reused.state.equal(fresh.state) {
				t.Errorf("re-primed handle %+v; opened handle %+v", reused.state, fresh.state)
			}
			if tc.stale && fresh.fs.FVResolves != 1 {
				t.Errorf("the stale hint resolved %d times through the directory, want 1", fresh.fs.FVResolves)
			}
		})
	}
}
