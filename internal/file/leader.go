// Package file implements the paper's long-term storage system: files made
// of label-checked disk pages (§3.2), the leader page carrying each file's
// self-identifying properties, the disk descriptor with its hint allocation
// map (§3.3), and the hint-based page location ladder (§3.6).
//
// The package is written against disk.Device, not *disk.Drive: the openness
// principle means a user program with a non-standard disk supplies its own
// device object and still gets the standard file system (§5.2).
package file

import (
	"errors"
	"fmt"
	"time"

	"altoos/internal/disk"
)

// FN is a file's full name: the absolute (FID, version) pair plus the hint
// address of its leader page. "Any operation on a file can be performed with
// no more than a knowledge of its full name" (§3.4); the hint part may be
// stale, in which case operations fail a label check and the caller climbs
// the recovery ladder.
type FN struct {
	FV     disk.FV
	Leader disk.VDA // hint: address of page 0
}

// String implements fmt.Stringer.
func (fn FN) String() string {
	return fmt.Sprintf("%v@%d", fn.FV, fn.Leader)
}

// MaxLeaderName is the longest leader name, in bytes, that fits the leader
// page layout.
const MaxLeaderName = 78

// Leader is the decoded contents of a file's page 0 (§3.2): "all the
// properties of the file other than its length and its data". Dates and the
// leader name are absolutes; the last-page fields and the consecutive flag
// are hints.
type Leader struct {
	Created time.Duration // simulated time of creation (absolute)
	Written time.Duration // simulated time of last write (absolute)
	Read    time.Duration // simulated time of last read (absolute)
	Name    string        // leader name: the file's self-identification (absolute)

	LastPN           disk.Word // hint: page number of the last page
	LastAddr         disk.VDA  // hint: disk address of the last page
	MaybeConsecutive bool      // hint: pages may be consecutively allocated
}

// Leader page layout, in words:
//
//	0..1   created   (32-bit simulated milliseconds)
//	2..3   written
//	4..5   read
//	6      name length in bytes
//	7..45  name bytes, two per word, big-endian within the word
//	46     last page number                 (hint)
//	47     last page address                (hint)
//	48     maybe-consecutive flag           (hint)
//	49..   unused
const (
	ldCreated  = 0
	ldWritten  = 2
	ldRead     = 4
	ldNameLen  = 6
	ldNameBase = 7
	ldNameCap  = MaxLeaderName / 2 // words 7..45
	ldLastPN   = 46
	ldLastAddr = 47
	ldConsec   = 48
)

// ErrLeader reports a malformed leader page.
var ErrLeader = errors.New("file: malformed leader page")

// timeToWords encodes a duration as 32 bits of milliseconds.
func timeToWords(d time.Duration) (hi, lo disk.Word) {
	ms := uint32(d / time.Millisecond)
	return disk.Word(ms >> 16), disk.Word(ms)
}

func wordsToTime(hi, lo disk.Word) time.Duration {
	return time.Duration(uint32(hi)<<16|uint32(lo)) * time.Millisecond
}

// Encode serializes the leader into a page value.
func (l Leader) Encode(v *[disk.PageWords]disk.Word) error {
	if len(l.Name) > MaxLeaderName {
		return fmt.Errorf("%w: leader name %q longer than %d bytes", ErrLeader, l.Name, MaxLeaderName)
	}
	for i := range v {
		v[i] = 0
	}
	v[ldCreated], v[ldCreated+1] = timeToWords(l.Created)
	v[ldWritten], v[ldWritten+1] = timeToWords(l.Written)
	v[ldRead], v[ldRead+1] = timeToWords(l.Read)
	v[ldNameLen] = disk.Word(len(l.Name))
	for i := 0; i < len(l.Name); i++ {
		w := &v[ldNameBase+i/2]
		if i%2 == 0 {
			*w |= disk.Word(l.Name[i]) << 8
		} else {
			*w |= disk.Word(l.Name[i])
		}
	}
	v[ldLastPN] = l.LastPN
	v[ldLastAddr] = disk.Word(l.LastAddr)
	if l.MaybeConsecutive {
		v[ldConsec] = 1
	}
	return nil
}

// DecodeLeader parses a leader page value.
func DecodeLeader(v *[disk.PageWords]disk.Word) (Leader, error) {
	n := int(v[ldNameLen])
	if n > MaxLeaderName {
		return Leader{}, fmt.Errorf("%w: name length %d", ErrLeader, n)
	}
	var name [MaxLeaderName]byte // on the stack: the string is the one allocation
	for i := 0; i < n; i++ {
		w := v[ldNameBase+i/2]
		if i%2 == 0 {
			name[i] = byte(w >> 8)
		} else {
			name[i] = byte(w)
		}
	}
	return Leader{
		Created:          wordsToTime(v[ldCreated], v[ldCreated+1]),
		Written:          wordsToTime(v[ldWritten], v[ldWritten+1]),
		Read:             wordsToTime(v[ldRead], v[ldRead+1]),
		Name:             string(name[:n]),
		LastPN:           v[ldLastPN],
		LastAddr:         disk.VDA(v[ldLastAddr]),
		MaybeConsecutive: v[ldConsec] != 0,
	}, nil
}
