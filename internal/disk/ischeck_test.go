package disk

import (
	"errors"
	"fmt"
	"testing"
)

// TestIsCheckMatchesErrorsAs checks IsCheck's own chain walk against
// errors.As over the wrappings the layers above use: fmt.Errorf with one or
// several %w verbs, errors.Join, and both nested in each other.
func TestIsCheckMatchesErrorsAs(t *testing.T) {
	ce := &CheckError{Addr: 3, WordIdx: 1, Expected: 7, OnDisk: 8}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"bare", ce, true},
		{"wrapped", fmt.Errorf("file: %w", ce), true},
		{"wrapped twice", fmt.Errorf("dir: %w", fmt.Errorf("file: %w", ce)), true},
		{"second of two verbs", fmt.Errorf("%w after %w", ErrBadSector, ce), true},
		{"joined", errors.Join(ErrAddress, ce), true},
		{"wrapped join", fmt.Errorf("x: %w", errors.Join(ErrBadSector, fmt.Errorf("y: %w", ce))), true},
		{"join of wraps", errors.Join(fmt.Errorf("a: %w", ErrAddress), fmt.Errorf("b: %w", ce)), true},
		{"other sentinel", ErrBadSector, false},
		{"wrapped other", fmt.Errorf("x: %w", ErrAddress), false},
		{"joined others", errors.Join(ErrAddress, fmt.Errorf("y: %w", ErrBadSector)), false},
		{"formatted, not wrapped", fmt.Errorf("x: %v", ce), false},
	}
	for _, c := range cases {
		var target *CheckError
		if ref := errors.As(c.err, &target); ref != c.want {
			t.Fatalf("%s: errors.As = %v, want %v (bad case)", c.name, ref, c.want)
		}
		if got := IsCheck(c.err); got != c.want {
			t.Errorf("%s: IsCheck = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestIsCheckDoesNotAllocate pins IsCheck's error path to zero allocations:
// the hint ladder asks it about every stale hint.
func TestIsCheckDoesNotAllocate(t *testing.T) {
	hit := fmt.Errorf("file: %w", errors.Join(ErrBadSector, fmt.Errorf("page: %w", &CheckError{Addr: 9})))
	miss := fmt.Errorf("file: %w", errors.Join(ErrAddress, ErrBadSector))
	if a := testing.AllocsPerRun(100, func() {
		if !IsCheck(hit) || IsCheck(miss) {
			t.Fatal("IsCheck misread its input")
		}
	}); a != 0 {
		t.Errorf("IsCheck: %v allocs, want 0", a)
	}
}

// TestProbeCheckFailsWithoutAllocating: a failed check of a Probe operation
// returns an error IsCheck recognizes, allocates nothing and counts as a
// check failure like any other; the same operation without Probe still
// surfaces the full *CheckError with its text.
func TestProbeCheckFailsWithoutAllocating(t *testing.T) {
	d := newTestDrive(t)
	var v [PageWords]Word
	if err := Allocate(d, 11, testLabel(0), &v); err != nil {
		t.Fatal(err)
	}
	var lbl [LabelWords]Word
	op := func(probe bool) error {
		lbl = checkWords(testLabel(1)) // the wrong page number
		return d.Do(&Op{Addr: 11, Label: Check, LabelData: &lbl, Probe: probe})
	}
	err := op(false)
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("a failed check returned %v, want a *CheckError", err)
	}
	const want = "disk: check failed at 11 label word 3: expected 0x0001, disk has 0x0000"
	if err.Error() != want {
		t.Errorf("check error text %q, want %q", err, want)
	}
	fails := d.Stats().CheckFail
	if a := testing.AllocsPerRun(100, func() {
		if err := op(true); !IsCheck(err) {
			t.Fatalf("a failed probe returned %v, want a check failure", err)
		}
	}); a != 0 {
		t.Errorf("a failed probe: %v allocs, want 0", a)
	}
	if got := d.Stats().CheckFail - fails; got != 101 {
		t.Errorf("101 failed probes counted %d check failures", got)
	}
}
