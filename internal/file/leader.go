// Package file implements the paper's long-term storage system: files made
// of label-checked disk pages (§3.2), the leader page carrying each file's
// self-identifying properties, the disk descriptor with its hint allocation
// map (§3.3), and the hint-based page location ladder (§3.6).
//
// The package is written against disk.Device, not *disk.Drive: the openness
// principle means a user program with a non-standard disk supplies its own
// device object and still gets the standard file system (§5.2).
//
// A File handle holds only hints, so its storage may be reused: FS.Open
// allocates a handle and primes it, and FS.OpenInto re-primes one a caller
// already has on any full name, with the same disk operations and nothing
// kept of the file it held before. A handle is not safe for concurrent use;
// whoever re-primes one must be its only holder.
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
//
// The name is held as the page holds it, bytes in a fixed array, so decoding
// a leader allocates nothing; it becomes a string only when Name is called.
type Leader struct {
	Created time.Duration // simulated time of creation (absolute)
	Written time.Duration // simulated time of last write (absolute)
	Read    time.Duration // simulated time of last read (absolute)

	LastPN           disk.Word // hint: page number of the last page
	LastAddr         disk.VDA  // hint: disk address of the last page
	MaybeConsecutive bool      // hint: pages may be consecutively allocated

	// name[:nameLen] is the leader name, the file's self-identification
	// (absolute). The bytes past nameLen are zero, so equal leaders compare
	// equal.
	name    [MaxLeaderName]byte
	nameLen uint8
}

// Name returns the leader name. Each call builds a new string; a File
// handle caches its own (File.Name).
func (l Leader) Name() string { return string(l.name[:l.nameLen]) }

// NameLen returns the leader name's length in bytes without building it.
func (l Leader) NameLen() int { return int(l.nameLen) }

// SetName replaces the leader name. A name longer than MaxLeaderName does
// not fit the page and is refused.
func (l *Leader) SetName(name string) error {
	if len(name) > MaxLeaderName {
		return fmt.Errorf("%w: leader name %q longer than %d bytes", ErrLeader, name, MaxLeaderName)
	}
	l.nameLen = uint8(copy(l.name[:], name))
	clear(l.name[len(name):])
	return nil
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
func (l *Leader) Encode(v *[disk.PageWords]disk.Word) {
	clear(v[:])
	v[ldCreated], v[ldCreated+1] = timeToWords(l.Created)
	v[ldWritten], v[ldWritten+1] = timeToWords(l.Written)
	v[ldRead], v[ldRead+1] = timeToWords(l.Read)
	v[ldNameLen] = disk.Word(l.nameLen)
	for i := 0; i < int(l.nameLen); i += 2 {
		v[ldNameBase+i/2] = disk.Word(l.name[i])<<8 | disk.Word(l.name[i+1])
	}
	v[ldLastPN] = l.LastPN
	v[ldLastAddr] = disk.Word(l.LastAddr)
	if l.MaybeConsecutive {
		v[ldConsec] = 1
	}
}

// DecodeLeader parses a leader page value. It allocates nothing: the name
// stays in the Leader's own array.
func DecodeLeader(v *[disk.PageWords]disk.Word) (Leader, error) {
	n := int(v[ldNameLen])
	if n > MaxLeaderName {
		return Leader{}, fmt.Errorf("%w: name length %d", ErrLeader, n)
	}
	l := Leader{
		Created:          wordsToTime(v[ldCreated], v[ldCreated+1]),
		Written:          wordsToTime(v[ldWritten], v[ldWritten+1]),
		Read:             wordsToTime(v[ldRead], v[ldRead+1]),
		LastPN:           v[ldLastPN],
		LastAddr:         disk.VDA(v[ldLastAddr]),
		MaybeConsecutive: v[ldConsec] != 0,
		nameLen:          uint8(n),
	}
	for i := 0; i < n; i++ {
		w := v[ldNameBase+i/2]
		if i%2 == 0 {
			w >>= 8
		}
		l.name[i] = byte(w)
	}
	return l, nil
}
