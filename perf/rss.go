package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// resetPeakRSS restarts the kernel's resident-set high-water mark, so that
// peakRSS reads the peak of what runs next rather than of the whole
// process. Where /proc/self/clear_refs refuses the write, the mark stays
// process-wide.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the resident-set high-water mark in MB: VmHWM, or getrusage's
// process-wide maximum where /proc is unavailable.
func peakRSS() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(status, []byte("\n")) {
			if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "VmHWM:" {
				if kb, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
