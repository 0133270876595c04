// Package altoos is a from-scratch reproduction of the operating system
// described in Butler W. Lampson and Robert F. Sproull, "An Open Operating
// System for a Single-User Machine" (SOSP 1979) — the Alto OS — as a Go
// library over a simulated Alto: a timed moving-head disk model, 64K words
// of memory, and a Nova-like CPU.
//
// The package is a facade: it re-exports the subsystem APIs so a downstream
// user can build a whole machine in one call and still reach every layer,
// because the openness of the original is the point. Files are built out of
// label-checked disk pages you can also use directly; directories are plain
// files; the Scavenger is a client of the disk like any other program; a
// Junta lets a program evict the parts of the system it doesn't want.
//
//	sys, err := altoos.New(altoos.Config{})
//	if err != nil { ... }
//	s, _ := sys.CreateStream("greeting.txt")
//	altoos.PutString(s, "hello from 1979")
//	s.Close()
//
// The subsystems, one package per system in the paper:
//
//   - internal/disk — sectors with header/label/value, per-part
//     read/check/write operations, rotational timing (§3.1, §3.3)
//   - internal/file — pages, files, leader pages, the disk descriptor and
//     its hint allocation map, the hint ladder (§3.2–§3.4, §3.6)
//   - internal/dir — directories as ordinary files (§3.4)
//   - internal/scavenge — the Scavenger and the compacting scavenger (§3.5)
//   - internal/stream — OS6-style streams (§2)
//   - internal/zone — free-storage zones (§5)
//   - internal/mem, internal/cpu, internal/asm — the machine
//   - internal/swap — OutLoad/InLoad world swaps and booting (§4)
//   - internal/junta — the thirteen levels, Junta and CounterJunta (§5.2)
//   - internal/exec — loader, syscall surface, the Executive (§5.1)
//   - internal/ether — the 3 Mb/s network (§4's print server)
package altoos

import (
	"altoos/internal/core"
	"altoos/internal/cpu"
	"altoos/internal/debug"
	"altoos/internal/dir"
	"altoos/internal/dirlog"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/exec"
	"altoos/internal/file"
	"altoos/internal/fileserver"
	"altoos/internal/junta"
	"altoos/internal/mem"
	"altoos/internal/pup"
	"altoos/internal/scavenge"
	"altoos/internal/sim"
	"altoos/internal/stream"
	"altoos/internal/swap"
	"altoos/internal/zone"
)

// System is a whole simulated Alto with its resident operating system. See
// core.System for the full method set: file and stream creation, the
// Executive, scavenging, compaction, and world swaps.
type System = core.System

// Config selects the machine to build; the zero value is a standard Alto.
type Config = core.Config

// New builds a machine: a formatted pack on a fresh drive, or an attached
// existing drive via Config.Drive.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// Disk layer.
type (
	// Geometry describes a drive's shape and timing.
	Geometry = disk.Geometry
	// Drive is the standard simulated disk drive.
	Drive = disk.Drive
	// Device is the abstract disk object; supply your own to use the
	// standard packages over non-standard hardware (§5.2).
	Device = disk.Device
	// Label is the seven-word absolute-plus-hint record on every sector.
	Label = disk.Label
	// VDA is a virtual disk address.
	VDA = disk.VDA
	// FID is a file identifier.
	FID = disk.FID
	// FV is the (identifier, version) absolute name prefix.
	FV = disk.FV
)

// Diablo31 is the standard 2.5 MB drive geometry.
func Diablo31() Geometry { return disk.Diablo31() }

// Trident is the larger, faster drive of §2.
func Trident() Geometry { return disk.Trident() }

// NewDrive creates a drive with a freshly formatted pack.
func NewDrive(g Geometry, pack uint16, clock *sim.Clock) (*Drive, error) {
	return disk.NewDrive(g, pack, clock)
}

// File layer.
type (
	// FS is a mounted file system.
	FS = file.FS
	// File is an open file handle.
	File = file.File
	// FN is a file's full name: absolute (FID, version) plus leader hint.
	FN = file.FN
	// Leader is the decoded leader page.
	Leader = file.Leader
)

// Format writes a fresh file system; Mount attaches to an existing one.
var (
	Format = file.Format
	Mount  = file.Mount
)

// Directory layer.
type (
	// Directory is an open directory file.
	Directory = dir.Directory
	// DirEntry is one (name, full name) pair.
	DirEntry = dir.Entry
)

// OpenRoot opens the root directory of a file system.
func OpenRoot(fs *FS) (*Directory, error) { return dir.OpenRoot(fs) }

// ResolveName finds a name anywhere in the directory graph.
func ResolveName(fs *FS, name string) (FN, error) { return dir.ResolveName(fs, name) }

// Scavenger.
type (
	// ScavengeReport describes what a scavenging pass found and repaired.
	ScavengeReport = scavenge.Report
	// CompactReport describes a compaction run.
	CompactReport = scavenge.CompactReport
)

// Scavenge reconstructs a file system from its labels alone.
func Scavenge(dev Device) (*FS, *ScavengeReport, error) { return scavenge.Run(dev) }

// Compact is the in-place permuting scavenger of §3.5.
func Compact(dev Device) (*FS, *CompactReport, error) { return scavenge.Compact(dev) }

// Streams.
type (
	// Stream is the standard stream object: Get/Put/Reset/EndOf/Close.
	Stream = stream.Stream
	// DiskStream is a byte stream over a file.
	DiskStream = stream.DiskStream
	// Keyboard is the type-ahead keyboard stream.
	Keyboard = stream.Keyboard
)

// Stream modes.
const (
	ReadMode   = stream.ReadMode
	WriteMode  = stream.WriteMode
	UpdateMode = stream.UpdateMode
)

// Stream helpers.
var (
	// NewDiskStream opens a stream over a file with an explicit zone and
	// memory — the open-style constructor of §2.
	NewDiskStream = stream.NewDisk
	// PutString writes a string to any stream.
	PutString = stream.PutString
	// ReadAllStream drains a stream.
	ReadAllStream = stream.ReadAll
	// PumpStream copies one stream into another.
	PumpStream = stream.Pump
)

// Machine.
type (
	// Memory is the 64K-word main store.
	Memory = mem.Memory
	// CPU is the Nova-like processor.
	CPU = cpu.CPU
	// Clock is the virtual clock all timing claims are measured on.
	Clock = sim.Clock
)

// Zones.
type (
	// Zone is the abstract free-storage object.
	Zone = zone.Zone
	// MemZone is the standard first-fit zone over simulated memory.
	MemZone = zone.MemZone
)

// NewZone builds a zone over any region of memory (§5.2).
func NewZone(m *Memory, base uint16, size int) (*MemZone, error) {
	return zone.New(m, base, size)
}

// World swap.
type (
	// Message is the ~20-word InLoad parameter vector.
	Message = swap.Message
)

// World-swap operations (§4.1).
var (
	OutLoad   = swap.OutLoad
	InLoad    = swap.InLoad
	SaveState = swap.SaveState
	LoadState = swap.LoadState
	Boot      = swap.Boot
	WriteBoot = swap.WriteBoot
)

// Junta.
type (
	// Junta manages the thirteen service levels.
	Junta = junta.Junta
	// JuntaLevel numbers a service level.
	JuntaLevel = junta.Level
)

// The levels of §5.2.
const (
	LevelSwap       = junta.LevelSwap
	LevelKeyboard   = junta.LevelKeyboard
	LevelHints      = junta.LevelHints
	LevelRuntime    = junta.LevelRuntime
	LevelDiskCode   = junta.LevelDiskCode
	LevelDiskData   = junta.LevelDiskData
	LevelZones      = junta.LevelZones
	LevelDiskStream = junta.LevelDiskStream
	LevelDirectory  = junta.LevelDirectory
	LevelKbdStream  = junta.LevelKbdStream
	LevelDisplay    = junta.LevelDisplay
	LevelLoader     = junta.LevelLoader
	LevelFreeStore  = junta.LevelFreeStore
)

// Executive and loader.
type (
	// OS is the resident syscall surface.
	OS = exec.OS
	// Executive is the command interpreter.
	Executive = exec.Executive
	// Loader reads code files and binds their fixups.
	Loader = exec.Loader
)

// Network.
type (
	// Network is the simulated 3 Mb/s Ethernet.
	Network = ether.Network
	// Station is one network attachment.
	Station = ether.Station
	// Packet is the standardized wire representation.
	Packet = ether.Packet
	// FileServer serves files over the network (the §1 remote facilities);
	// it is the PageServer.
	FileServer = fileserver.Server
	// FileClient fetches and stores files against a FileServer.
	FileClient = fileserver.Client
	// FaultConfig parameterizes the deterministic lossy-wire model.
	FaultConfig = ether.FaultConfig
	// FaultMedium injects seeded drops, duplicates, delays and bit flips
	// into a Network; everything above the packet layer must survive it.
	FaultMedium = ether.FaultMedium
	// FaultRate is a fault probability (Num out of Den deliveries).
	FaultRate = ether.Rate
	// Endpoint is a reliable-transport endpoint over one Station.
	Endpoint = pup.Endpoint
	// Conn is one reliable connection on an Endpoint.
	Conn = pup.Conn
	// TransportConfig tunes a reliable-transport Endpoint.
	TransportConfig = pup.Config
	// PageServer is the multi-client file server over reliable transport.
	PageServer = fileserver.Server
	// PageClient runs transfers against a PageServer.
	PageClient = fileserver.Client
)

// NewNetwork creates a broadcast network on a clock.
func NewNetwork(clock *Clock) *Network { return ether.New(clock) }

// ConnClosed is the terminal connection state (see Conn.State).
const ConnClosed = pup.StateClosed

// NewEndpoint builds a reliable-transport endpoint on a station.
func NewEndpoint(st *Station, cfg TransportConfig) *Endpoint {
	return pup.NewEndpoint(st, cfg)
}

// NewPageServer builds a multi-client file server on an endpoint.
func NewPageServer(fs *FS, ep *Endpoint) *PageServer { return fileserver.NewServer(fs, ep) }

// NewPageClient builds a file-server client on an endpoint.
func NewPageClient(ep *Endpoint) *PageClient { return fileserver.NewClient(ep) }

// Debugging (§4).
type (
	// Debugger is the Swat-style debugger operating on Swatee state files.
	Debugger = debug.Debugger
)

// Diskless is the §5.2 configuration without a disk.
type (
	Diskless       = core.Diskless
	DisklessConfig = core.DisklessConfig
)

// NewDiskless builds a machine with no disk — display, keyboard, zones and
// optionally a network station.
func NewDiskless(cfg DisklessConfig) (*Diskless, error) { return core.NewDiskless(cfg) }

// Directory journaling (the §3.5 user extension).
type (
	// DirLog is the write-ahead directory journal with snapshots.
	DirLog = dirlog.Log
)
