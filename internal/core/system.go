// Package core assembles the open operating system from its packages: the
// simulated machine (memory, CPU, clock), the disk and file system, the
// stream and zone objects, the level structure with Junta/CounterJunta, the
// loader and Executive, and the full §3.6 hint-recovery ladder wired from
// the file layer through the directories to the Scavenger.
//
// Nothing in this package is privileged: it calls only the exported
// operations of the substrate packages, which is the paper's whole point —
// "there is no significant difference between these system procedures and a
// set of procedures that the user might write".
package core

import (
	"fmt"
	"io"
	"os"

	"altoos/internal/cpu"
	"altoos/internal/debug"
	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/exec"
	"altoos/internal/file"
	"altoos/internal/junta"
	"altoos/internal/mem"
	"altoos/internal/scavenge"
	"altoos/internal/sim"
	"altoos/internal/stream"
	"altoos/internal/swap"
	"altoos/internal/trace"
	"altoos/internal/zone"
)

// Config selects the machine to build. The zero value gives a standard Alto:
// one Diablo 31 drive, display on os.Stdout.
type Config struct {
	// Display receives display-stream output; os.Stdout if nil.
	Display io.Writer
	// Drive, if non-nil, is used instead of creating a fresh one — attach
	// to an existing pack (it will be mounted, not formatted).
	Drive *disk.Drive
	// TraceEvents, when nonzero, turns the flight recorder on with a ring
	// of that many events (negative: trace.DefaultEvents). Zero leaves
	// tracing off: every hook sees a nil recorder and pays one branch.
	TraceEvents int
}

// System is the whole machine plus its resident operating system.
type System struct {
	Clock    *sim.Clock
	Drive    *disk.Drive
	FS       *file.FS
	Mem      *mem.Memory
	CPU      *cpu.CPU
	Zone     *zone.MemZone // the system free storage (level 13)
	Levels   *junta.Junta
	OS       *exec.OS
	Exec     *exec.Executive
	Loader   *exec.Loader
	Keyboard *stream.Keyboard
	Debugger *debug.Debugger
	// Trace is the system's flight recorder; nil unless Config.TraceEvents
	// asked for one. The drive carries it to every layer of the storage
	// stack (trace.Of on any Device reaches it).
	Trace *trace.Recorder
}

// New builds a machine. With cfg.Drive nil, a fresh Diablo 31 pack (pack 0)
// is formatted; with cfg.Drive set, the existing pack is mounted
// (scavenging it first if the descriptor is unreadable).
func New(cfg Config) (*System, error) {
	display := cfg.Display
	if display == nil {
		display = os.Stdout
	}

	s := &System{Clock: sim.NewClock()}
	if cfg.TraceEvents != 0 {
		s.Trace = trace.New(cfg.TraceEvents)
	}
	var err error
	if cfg.Drive != nil {
		s.Drive = cfg.Drive
		s.Clock = cfg.Drive.Clock()
		if s.Trace != nil {
			s.Drive.SetRecorder(s.Trace)
		}
		s.FS, err = file.Mount(s.Drive)
		if err != nil {
			// The paper's answer to an unreadable disk: scavenge it.
			s.FS, _, err = scavenge.Run(s.Drive)
			if err != nil {
				return nil, fmt.Errorf("core: disk unusable even after scavenging: %w", err)
			}
		}
	} else {
		s.Drive, err = disk.NewDrive(disk.Diablo31(), 0, s.Clock)
		if err != nil {
			return nil, err
		}
		if s.Trace != nil {
			s.Drive.SetRecorder(s.Trace)
		}
		s.FS, err = file.Format(s.Drive)
		if err != nil {
			return nil, err
		}
		if _, err := dir.InitRoot(s.FS); err != nil {
			return nil, err
		}
	}

	// The machine.
	s.Mem = mem.New()
	s.Levels = junta.New(s.Mem)

	// System free storage: a zone over the level-13 region.
	if err := s.rebuildZone(); err != nil {
		return nil, err
	}
	s.Keyboard = stream.NewKeyboard()
	s.OS = exec.NewOS(s.FS, s.Mem, s.Zone, s.Keyboard, stream.NewDisplay(display))
	// Level 3: the resident hint table for frequently-used files and the
	// user's name (§5).
	hints, err := exec.NewResidentHints(s.Mem, s.Levels)
	if err != nil {
		return nil, err
	}
	s.OS.Hints = hints
	s.CPU = cpu.New(s.Mem, s.Clock, s.OS)
	s.Loader = &exec.Loader{OS: s.OS}
	s.Exec = exec.NewExecutive(s.OS, s.CPU)
	s.Debugger = debug.New(s.OS, s.CPU)
	s.Debugger.Trace = s.Trace
	// "debug" drops into the Swat REPL on the standard streams — installed
	// as an extension command, the way any user package would add itself.
	s.Exec.InstallCommand("debug", func(e *exec.Executive, args []string) error {
		return s.Debugger.REPL(s.Keyboard, s.OS.Display)
	})
	// Route scavenge/compact through the System so the live FS adopts the
	// rebuilt state in place (the Executive's standalone built-ins would
	// otherwise swap OS.FS away from System.FS).
	s.Exec.InstallCommand("scavenge", func(e *exec.Executive, args []string) error {
		rep, err := s.Scavenge()
		if err != nil {
			return err
		}
		return stream.PutString(s.OS.Display, rep.String()+"\n")
	})
	s.Exec.InstallCommand("compact", func(e *exec.Executive, args []string) error {
		rep, err := s.Compact()
		if err != nil {
			return err
		}
		return stream.PutString(s.OS.Display, rep.String()+"\n")
	})

	// Wire the §3.6 recovery ladder: FV lookup through the directory graph,
	// then the Scavenger.
	s.FS.SetRecovery(file.Recovery{
		ResolveFV: dir.ResolveFV(s.FS),
		Scavenge: func() error {
			_, err := s.Scavenge()
			return err
		},
	})

	// Register the services the Junta can remove. Only the ones with real
	// in-memory state need hooks; the rest are accounting.
	s.Levels.Register(&junta.Service{
		Name:  "system free storage",
		Level: junta.LevelFreeStore,
		Teardown: func() {
			s.Zone = nil
			s.OS.Zone = nil
		},
		Restore: func() error {
			if err := s.rebuildZone(); err != nil {
				return err
			}
			s.OS.Zone = s.Zone
			return nil
		},
	})
	s.Levels.Register(&junta.Service{
		Name:  "keyboard streams",
		Level: junta.LevelKbdStream,
		// The buffer itself is level 2 and survives; only the stream object
		// is removed, and it is stateless.
		Restore: func() error { return nil },
	})
	return s, nil
}

// rebuildZone (re)creates the system free-storage zone over the level-13
// region.
func (s *System) rebuildZone() error {
	r, err := s.Levels.Region(junta.LevelFreeStore)
	if err != nil {
		return err
	}
	size := r.Size()
	if size > 0x7FFF {
		size = 0x7FFF
	}
	z, err := zone.New(s.Mem, r.Start, size)
	if err != nil {
		return err
	}
	z.SetTrace(s.Trace, s.Clock)
	s.Zone = z
	return nil
}

// Root opens the root directory.
func (s *System) Root() (*dir.Directory, error) { return dir.OpenRoot(s.FS) }

// CreateFile creates a file and enters it in the root directory.
func (s *System) CreateFile(name string) (*file.File, error) {
	root, err := s.Root()
	if err != nil {
		return nil, err
	}
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if err := root.Insert(name, f.FN()); err != nil {
		return nil, err
	}
	return f, nil
}

// OpenByName resolves a name anywhere in the directory graph and opens it.
func (s *System) OpenByName(name string) (*file.File, error) {
	fn, err := dir.ResolveName(s.FS, name)
	if err != nil {
		return nil, err
	}
	return s.FS.Open(fn)
}

// OpenStream opens a disk stream on a named file with the system zone —
// the defaulting the paper describes for the stream constructor's
// substrate parameters.
func (s *System) OpenStream(name string, mode stream.Mode) (*stream.DiskStream, error) {
	f, err := s.OpenByName(name)
	if err != nil {
		return nil, err
	}
	return stream.NewDisk(f, s.Zone, s.Mem, mode)
}

// CreateStream creates a named file and opens a write stream on it.
func (s *System) CreateStream(name string) (*stream.DiskStream, error) {
	f, err := s.CreateFile(name)
	if err != nil {
		return nil, err
	}
	return stream.NewDisk(f, s.Zone, s.Mem, stream.UpdateMode)
}

// Scavenge runs the Scavenger on the system's disk and adopts the rebuilt
// state into the live FS (same handle: open files keep working, their hints
// re-verified on next use).
func (s *System) Scavenge() (*scavenge.Report, error) {
	fs2, rep, err := scavenge.Run(s.Drive)
	if err != nil {
		return nil, err
	}
	if err := s.adopt(fs2); err != nil {
		return nil, err
	}
	return rep, nil
}

// Compact runs the compacting scavenger.
func (s *System) Compact() (*scavenge.CompactReport, error) {
	fs2, rep, err := scavenge.Compact(s.Drive)
	if err != nil {
		return nil, err
	}
	if err := s.adopt(fs2); err != nil {
		return nil, err
	}
	return rep, nil
}

// adopt folds a rebuilt FS into the live one without changing identity.
func (s *System) adopt(fs2 *file.FS) error {
	err := s.FS.AdoptDescriptor(fs2.Descriptor())
	s.FS.SetRootDir(fs2.RootDir())
	s.FS.SetDescriptorFN(fs2.DescriptorFN())
	return err
}

// SaveWorld writes the machine state as the boot image, so the next Boot
// resumes exactly here (§4's "saving the state of a running program that
// will be resumed each time the machine is bootstrapped").
func (s *System) SaveWorld() (file.FN, error) {
	return swap.WriteBoot(s.FS, s.CPU)
}

// Boot presses the bootstrap button: machine state restored from the fixed
// boot sector.
func (s *System) Boot() error {
	return swap.Boot(s.FS, s.CPU)
}

// TypeAhead queues keystrokes for the keyboard stream.
func (s *System) TypeAhead(text string) { s.Keyboard.TypeAhead(text) }

// RunExecutive runs the command interpreter until the type-ahead runs dry.
func (s *System) RunExecutive() error { return s.Exec.Run() }
