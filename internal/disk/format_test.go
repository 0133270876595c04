package disk_test

import (
	"testing"

	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/trace"
)

// BenchmarkFormat is what every simulated machine pays for its pack before
// it runs: a fresh drive, a flight recorder attached (the first attach
// brings the value checksums up to date) and a file system formatted on it.
func BenchmarkFormat(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := disk.NewDrive(disk.Diablo31(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		d.SetRecorder(trace.New(1 << 10))
		if _, err := file.Format(d); err != nil {
			b.Fatal(err)
		}
	}
}
