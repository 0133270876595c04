package scavenge

import (
	"testing"

	"altoos/internal/disk"
	"altoos/internal/fsck"
	"altoos/internal/sim"
)

// maintenancePasses are the three passes that sweep the whole pack into a
// label table, each as a function of a fresh drive. ceiling is the most
// allocations the pass may make on agedPack(1, 1), a pack of 48 files:
// about a tenth above what it makes.
var maintenancePasses = []struct {
	name    string
	pass    func(disk.Device) error
	ceiling float64
}{
	{"Run", func(d disk.Device) error { _, _, err := Run(d); return err }, 160},
	{"Compact", func(d disk.Device) error { _, _, err := Compact(d); return err }, 220},
	{"fsck.Check", func(d disk.Device) error { _, err := fsck.Check(d); return err }, 110},
}

// allocsPerPass is the mean allocation count of pass over fresh copies of
// image, so every run sees the same pack.
func allocsPerPass(t *testing.T, image []byte, pass func(disk.Device) error) float64 {
	t.Helper()
	const runs = 3
	drives := make([]*disk.Drive, runs+1) // AllocsPerRun adds a warm-up call
	for i := range drives {
		drives[i] = loadPack(t, image)
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		if err := pass(drives[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestMaintenanceAllocations pins what a whole-pack maintenance pass
// allocates on an aged pack, and that the count depends on the number of
// files, not on their length: a pack with the same files, each four times
// as long, must cost the same within a small slack. The label table is one
// slice sized from the sector count, so nothing is allocated per page.
func TestMaintenanceAllocations(t *testing.T) {
	const slack = 2
	short, long := agedPack(t, 1, 1), agedPack(t, 1, 4)
	for _, p := range maintenancePasses {
		a1, a4 := allocsPerPass(t, short, p.pass), allocsPerPass(t, long, p.pass)
		if a1 > p.ceiling {
			t.Errorf("%s: %v allocs on the aged pack, want at most %v", p.name, a1, p.ceiling)
		}
		if a4 > a1+slack || a1 > a4+slack {
			t.Errorf("%s: %v allocs on the aged pack, %v with files 4x as long; want the same within %d",
				p.name, a1, a4, slack)
		}
	}
}

// benchPass times pass over fresh copies of an aged pack with files four
// times as long as the allocation test's, each copy hurt first if hurt is
// not nil. Loading and hurting the copy are not timed.
func benchPass(b *testing.B, hurt func(*disk.Drive), pass func(disk.Device) error) {
	image := agedPack(b, 1, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := loadPack(b, image)
		if hurt != nil {
			hurt(d)
		}
		b.StartTimer()
		if err := pass(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScavengeRun times the in-memory Scavenger over an aged pack with
// pack-churn's damage: link words flipped and free labels turned to garbage.
func BenchmarkScavengeRun(b *testing.B) {
	benchPass(b, func(d *disk.Drive) { damage(d, sim.NewRand(7), 3) }, maintenancePasses[0].pass)
}

// BenchmarkCompact times compaction of an aged pack, the closing scavenge
// included.
func BenchmarkCompact(b *testing.B) {
	benchPass(b, nil, maintenancePasses[1].pass)
}
