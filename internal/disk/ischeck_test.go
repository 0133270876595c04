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
