package file

import (
	"fmt"

	"altoos/internal/disk"
)

// Hooks used by the Scavenger. The paper's openness cuts both ways: the
// Scavenger is not privileged code inside the file system, it is a client
// that reconstructs the file system's hints from the absolutes on the disk.
// These entry points let it hand the results back.

// Adopt builds an FS around a descriptor reconstructed from the labels,
// without reading anything from the device. The caller (the Scavenger) is
// responsible for the descriptor file existing at descFN before Flush is
// called.
func Adopt(dev disk.Device, desc *Descriptor, descFN FN) *FS {
	return &FS{
		dev:    dev,
		desc:   desc,
		descFN: descFN,
		rover:  DescLeaderVDA + 1,
	}
}

// SetDescriptorFN redirects the FS at the descriptor file's current full
// name, after the Scavenger recreated or relocated it.
func (fs *FS) SetDescriptorFN(fn FN) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.descFN = fn
}

// DescriptorFN returns the descriptor file's full name.
func (fs *FS) DescriptorFN() FN {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.descFN
}

// CreateWithFV creates a file with a caller-chosen identity, optionally at a
// fixed leader address (pass disk.NilVDA for anywhere). The Scavenger uses
// it to recreate destroyed system files under their standard identities.
func (fs *FS) CreateWithFV(fv disk.FV, name string, leaderAt disk.VDA) (*File, error) {
	if fv.Version == 0 {
		return nil, fmt.Errorf("%w: version 0", ErrBadArg)
	}
	return fs.create(fv, name, leaderAt, disk.NilVDA)
}

// OpenTrusted returns a handle from a table entry the caller has just
// verified against the labels (the Scavenger's sweep), skipping the leader
// re-read that Open performs. lastPN/lastLen must describe the real last
// page.
func (fs *FS) OpenTrusted(fn FN, ldr Leader, lastPN disk.Word, lastLen int) *File {
	f := &File{
		fs:      fs,
		fn:      fn,
		ldr:     ldr,
		lastPN:  lastPN,
		lastLen: lastLen,
	}
	f.resetHints(fn.Leader)
	return f
}
