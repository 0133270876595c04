//go:build race

package pup

// Under the race detector sync.Pool drops a random quarter of the buffers
// it is handed, so pool reuse cannot be pinned at zero allocations.
func init() { raceEnabled = true }
