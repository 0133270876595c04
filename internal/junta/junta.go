// Package junta implements the level organization of §5.2 and the Junta/
// CounterJunta procedures. The operating system's packages are arranged in
// numbered levels: the most ubiquitous services (OutLoad/InLoad,
// CounterJunta itself) at the very top of memory, less ubiquitous ones in
// higher-numbered levels at lower addresses. A program that wants the
// memory — or wants to replace the standard facilities with its own — calls
// Junta with the highest level it intends to keep; everything below that in
// memory is removed and its storage freed for the program's own use. When
// the program finishes, CounterJunta restores the removed levels from the
// operating system's saved state and reinitializes their data structures.
//
// "Unlike more elaborate mechanisms such as swapping code segments, this
// scheme guarantees the performance of the resident system."
package junta

import (
	"errors"
	"fmt"
	"sort"

	"altoos/internal/mem"
)

// Level numbers the thirteen service levels of §5.2.
type Level int

// The levels, exactly as the paper lists them. Levels 5 and 6 are the two
// halves of the disk package (code and data).
const (
	LevelSwap       Level = 1  // OutLoad/InLoad, CounterJunta
	LevelKeyboard   Level = 2  // keyboard input buffer
	LevelHints      Level = 3  // hints for important files
	LevelRuntime    Level = 4  // BCPL runtime procedures
	LevelDiskCode   Level = 5  // disk object code
	LevelDiskData   Level = 6  // disk object data
	LevelZones      Level = 7  // the standard free-storage object
	LevelDiskStream Level = 8  // disk stream objects
	LevelDirectory  Level = 9  // disk directories
	LevelKbdStream  Level = 10 // keyboard stream object
	LevelDisplay    Level = 11 // display stream objects
	LevelLoader     Level = 12 // the program loader and Junta itself
	LevelFreeStore  Level = 13 // system free storage
)

// NumLevels is the count of defined levels.
const NumLevels = 13

var levelNames = map[Level]string{
	LevelSwap:       "OutLoad/InLoad, CounterJunta",
	LevelKeyboard:   "keyboard input buffer",
	LevelHints:      "hints for important files",
	LevelRuntime:    "BCPL runtime procedures",
	LevelDiskCode:   "disk object (code)",
	LevelDiskData:   "disk object (data)",
	LevelZones:      "zones (free-storage object)",
	LevelDiskStream: "disk streams",
	LevelDirectory:  "disk directories",
	LevelKbdStream:  "keyboard streams",
	LevelDisplay:    "display streams",
	LevelLoader:     "program loader and Junta",
	LevelFreeStore:  "system free storage",
}

// String implements fmt.Stringer.
func (l Level) String() string {
	if n, ok := levelNames[l]; ok {
		return fmt.Sprintf("level %d (%s)", int(l), n)
	}
	return fmt.Sprintf("level %d", int(l))
}

// defaultSizes gives each level's resident footprint in words. The figures
// follow the paper's hints where it gives them (InLoad and OutLoad are
// "about 900 words"; the keyboard buffer and hint tables are small; the
// free-storage region dominates).
var defaultSizes = map[Level]int{
	LevelSwap:       1024,
	LevelKeyboard:   256,
	LevelHints:      256,
	LevelRuntime:    768,
	LevelDiskCode:   1536,
	LevelDiskData:   512,
	LevelZones:      512,
	LevelDiskStream: 1280,
	LevelDirectory:  1024,
	LevelKbdStream:  256,
	LevelDisplay:    1280,
	LevelLoader:     1024,
	LevelFreeStore:  8192,
}

// Service is a resident facility living at some level. Teardown runs when a
// Junta removes it; Restore runs when CounterJunta brings it back.
type Service struct {
	Name     string
	Level    Level
	Teardown func()
	Restore  func() error
}

// Errors.
var (
	// ErrBadLevel reports a level outside 1..13.
	ErrBadLevel = errors.New("junta: no such level")
)

// Junta manages the level table over main memory.
type Junta struct {
	m        *mem.Memory
	regions  map[Level]mem.Region
	services []*Service
	retained Level // highest level currently resident
}

// New lays the levels out at the top of memory: level 1 highest, level 13
// lowest, contiguous. The returned Junta has all levels resident.
func New(m *mem.Memory) *Junta {
	j := &Junta{m: m, regions: map[Level]mem.Region{}, retained: NumLevels}
	top := 1 << 16
	for l := Level(1); l <= NumLevels; l++ {
		size := defaultSizes[l]
		start := top - size
		end := mem.Addr(0)
		if top < 1<<16 {
			end = mem.Addr(top)
		}
		j.regions[l] = mem.Region{Start: mem.Addr(start), End: end}
		top = start
	}
	return j
}

// Region returns the memory region a level occupies.
func (j *Junta) Region(l Level) (mem.Region, error) {
	r, ok := j.regions[l]
	if !ok {
		return mem.Region{}, fmt.Errorf("%w: %d", ErrBadLevel, l)
	}
	return r, nil
}

// Base returns the lowest address used by any resident level: everything
// below it belongs to user programs.
func (j *Junta) Base() mem.Addr {
	return j.regions[j.retained].Start
}

// Retained returns the highest-numbered level still resident.
func (j *Junta) Retained() Level { return j.retained }

// Resident reports whether a level is currently resident.
func (j *Junta) Resident(l Level) bool { return l <= j.retained }

// Register adds a service to its level. Services registered on a removed
// level are restored by the next CounterJunta.
func (j *Junta) Register(s *Service) error {
	if s.Level < 1 || s.Level > NumLevels {
		return fmt.Errorf("%w: %d", ErrBadLevel, s.Level)
	}
	j.services = append(j.services, s)
	return nil
}

// Do performs the Junta: removes every level above keep (higher-numbered,
// lower in memory), running their services' teardowns, and returns the
// freed region, which the caller may use as it pleases — typically to build
// a zone over (§5.2: the allocator "will build zone objects to allocate any
// part of memory").
func (j *Junta) Do(keep Level) (freed mem.Region, freedWords int, err error) {
	if keep < 1 || keep > NumLevels {
		return mem.Region{}, 0, fmt.Errorf("%w: %d", ErrBadLevel, keep)
	}
	if keep >= j.retained {
		// Nothing to remove.
		return mem.Region{Start: j.Base(), End: j.Base()}, 0, nil
	}
	// Teardown from the lowest level upward (most dependent first).
	for l := j.retained; l > keep; l-- {
		for _, s := range j.services {
			if s.Level == l && s.Teardown != nil {
				s.Teardown()
			}
		}
	}
	low := j.regions[NumLevels].Start
	if j.retained < NumLevels {
		low = j.regions[j.retained].Start
	}
	high := j.regions[keep].Start
	j.retained = keep
	region := mem.Region{Start: low, End: high}
	// Scrub the freed storage: the departing levels' data structures must
	// not be mistaken for live state.
	j.m.Clear(low, region.Size())
	return region, region.Size(), nil
}

// CounterJunta restores every removed level, lowest-numbered first, running
// the services' Restore hooks to reinitialize their data structures. On the
// real machine this reloads the system image from the OS's InLoad/OutLoad
// context; the restore hooks are that reload.
func (j *Junta) CounterJunta() error {
	if j.retained == NumLevels {
		return nil
	}
	old := j.retained
	j.retained = NumLevels
	// Restore in ascending level order.
	svcs := append([]*Service(nil), j.services...)
	sort.SliceStable(svcs, func(a, b int) bool { return svcs[a].Level < svcs[b].Level })
	for _, s := range svcs {
		if s.Level > old && s.Restore != nil {
			if err := s.Restore(); err != nil {
				return fmt.Errorf("junta: restoring %s: %w", s.Name, err)
			}
		}
	}
	return nil
}

// Table describes every level: its region, size, and residency. For the
// Junta experiment and the diagnostic tools.
type TableEntry struct {
	Level    Level
	Name     string
	Region   mem.Region
	Words    int
	Resident bool
}

// Table returns the level table in level order.
func (j *Junta) Table() []TableEntry {
	out := make([]TableEntry, 0, NumLevels)
	for l := Level(1); l <= NumLevels; l++ {
		r := j.regions[l]
		out = append(out, TableEntry{
			Level:    l,
			Name:     levelNames[l],
			Region:   r,
			Words:    r.Size(),
			Resident: j.Resident(l),
		})
	}
	return out
}
