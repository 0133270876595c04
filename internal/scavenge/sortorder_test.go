package scavenge

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"altoos/internal/sim"
)

// TestSortFuncOrdersLikeSortSlice pins the equivalence the Scavenger, fsck,
// the directory listing and the digest table rely on since they moved from
// sort.Slice to slices.SortFunc: with a cmp that is negative exactly when the
// old less was true, both leave the elements in the same order — ties
// included, though neither sort is stable — because both are the same
// pdqsort. Sort order reaches the disk (layout, repair order, reports), so a
// toolchain whose two sorts drift apart must fail here, not in a trace diff.
func TestSortFuncOrdersLikeSortSlice(t *testing.T) {
	type elem struct{ key, sub, id int }
	rnd := sim.NewRand(7)
	for trial := 0; trial < 20000; trial++ {
		n := rnd.Intn(40)
		if trial%10 == 0 {
			n = rnd.Intn(1200) // past the insertion-sort and ninther cut-offs
		}
		keys := 1 + rnd.Intn(n+1) // few keys: many ties
		in := make([]elem, n)
		for i := range in {
			in[i] = elem{key: rnd.Intn(keys), sub: rnd.Intn(3), id: i}
		}
		switch trial % 4 { // pdqsort's pattern detectors want runs too
		case 1:
			slices.SortFunc(in[:n/2], func(a, b elem) int { return cmp.Compare(a.key, b.key) })
		case 2:
			slices.SortFunc(in, func(a, b elem) int { return cmp.Compare(b.key, a.key) })
		}

		// One key, as the compactor orders a file's pages by number.
		old := slices.Clone(in)
		sort.Slice(old, func(i, j int) bool { return old[i].key < old[j].key })
		got := slices.Clone(in)
		slices.SortFunc(got, func(a, b elem) int { return cmp.Compare(a.key, b.key) })
		if !slices.Equal(old, got) {
			t.Fatalf("trial %d (n=%d, one key): sort.Slice and slices.SortFunc disagree", trial, n)
		}

		// Two keys, as fsck and the Scavenger order (page, address).
		old = slices.Clone(in)
		sort.Slice(old, func(i, j int) bool {
			if old[i].key != old[j].key {
				return old[i].key < old[j].key
			}
			return old[i].sub < old[j].sub
		})
		got = slices.Clone(in)
		slices.SortFunc(got, func(a, b elem) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.sub, b.sub))
		})
		if !slices.Equal(old, got) {
			t.Fatalf("trial %d (n=%d, two keys): sort.Slice and slices.SortFunc disagree", trial, n)
		}
	}
}
