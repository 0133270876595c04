package main

// Layer probes: each times one layer's basic operation on its own, with
// nothing above it, so a workload's per-layer numbers can be read against
// the layer's bare cost. probes_test.go runs the same functions as
// BenchmarkLayer* benchmarks.

import (
	"errors"
	"flag"
	"fmt"
	"testing"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fleet"
	"altoos/internal/mem"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/stream"
	"altoos/internal/trace"
	"altoos/internal/zone"
)

// probeTime is how long testing.Benchmark runs each probe.
const probeTime = "100ms"

// layerProbes pairs each name in probeNames with its function.
var layerProbes = map[string]func(*testing.B){
	"disk.do":         probeDiskDo,
	"disk.do_chain":   probeDiskDoChain,
	"file.read_page":  probeFileReadPage,
	"dir.lookup":      probeDirLookup,
	"stream.get":      probeStreamGet,
	"pup.round_trip":  probePupRoundTrip,
	"ether.send_recv": probeEtherSendRecv,
	"fleet.handoff":   probeFleetHandoff,
	"trace.emit_nil":  probeEmitNil,
	"trace.emit_live": probeEmitLive,
}

// runProbes runs every probe through testing.Benchmark and returns the
// probe.* metrics.
func runProbes() (map[string]float64, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", probeTime); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, name := range probeNames {
		r := testing.Benchmark(layerProbes[name])
		if r.N == 0 {
			return nil, fmt.Errorf("probe %s failed", name)
		}
		out["probe."+name+".host_ns_per_op"] = float64(r.T.Nanoseconds()) / float64(r.N)
		out["probe."+name+".allocs_per_op"] = float64(r.MemAllocs) / float64(r.N)
	}
	return out, nil
}

// probePack is a formatted Diablo31 pack with a root directory.
func probePack(b *testing.B) (*file.FS, *dir.Directory) {
	drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := file.Format(drv)
	if err != nil {
		b.Fatal(err)
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		b.Fatal(err)
	}
	return fs, root
}

// probeFile creates a file of pages full pages plus an empty last page.
func probeFile(b *testing.B, fs *file.FS, name string, pages int) *file.File {
	f, err := fs.Create(name)
	if err != nil {
		b.Fatal(err)
	}
	var page [disk.PageWords]disk.Word
	for pn := 1; pn <= pages; pn++ {
		for i := range page {
			page[i] = disk.Word((pn*251 + i) & 0xFFFF)
		}
		if err := f.WritePage(disk.Word(pn), &page, disk.PageBytes); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		b.Fatal(err)
	}
	return f
}

// probeDiskDo is one label-and-value read on the drive.
func probeDiskDo(b *testing.B) {
	drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	lbl := disk.FreeLabelWords() // the pack is fresh: every sector is free
	var val [disk.PageWords]disk.Word
	op := disk.Op{Label: disk.Check, LabelData: &lbl, Value: disk.Read, ValueData: &val}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Addr = disk.VDA((100 + i%64) & 0xFFFF)
		if err := drv.Do(&op); err != nil {
			b.Fatal(err)
		}
	}
}

// probeDiskDoChain is an 8-op free-order chain of reads across the pack.
func probeDiskDoChain(b *testing.B) {
	drv, err := disk.NewDrive(disk.Diablo31(), 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	var lbls [8][disk.LabelWords]disk.Word
	for k := range lbls {
		lbls[k] = disk.FreeLabelWords() // the pack is fresh: every sector is free
	}
	var vals [8][disk.PageWords]disk.Word
	ops := make([]disk.Op, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range ops {
			ops[k] = disk.Op{Addr: disk.VDA(((i*8+k)*37%4000 + 100) & 0xFFFF), Label: disk.Check, LabelData: &lbls[k], Value: disk.Read, ValueData: &vals[k]}
		}
		if err := disk.FirstChainError(drv.DoChain(ops, disk.FreeOrder)); err != nil {
			b.Fatal(err)
		}
	}
}

// probeFileReadPage is one page read through a file handle's hints.
func probeFileReadPage(b *testing.B) {
	fs, _ := probePack(b)
	f := probeFile(b, fs, "probe", 8)
	var page [disk.PageWords]disk.Word
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadPage(disk.Word((1+i%8)&0xFFFF), &page); err != nil {
			b.Fatal(err)
		}
	}
}

// probeDirLookup is a name lookup in a root directory of 32 entries.
func probeDirLookup(b *testing.B) {
	fs, root := probePack(b)
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("entry%02d", i)
		f, err := fs.Create(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := root.Insert(name, f.FN()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Lookup("entry17"); err != nil {
			b.Fatal(err)
		}
	}
}

// probeStreamGet is one byte read from a disk stream.
func probeStreamGet(b *testing.B) {
	fs, _ := probePack(b)
	f := probeFile(b, fs, "probe", 4)
	m := mem.New()
	z, err := zone.New(m, 0x1000, 0x1000)
	if err != nil {
		b.Fatal(err)
	}
	st, err := stream.NewDisk(f, z, m, stream.ReadMode)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(); err != nil {
			if !errors.Is(err, stream.ErrEnd) {
				b.Fatal(err)
			}
			if err := st.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// probePupRoundTrip is one message out and its echo back over an open
// connection on a clean, shared-clock wire.
func probePupRoundTrip(b *testing.B) {
	wire := ether.New(nil)
	sa, err := wire.Attach(1)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := wire.Attach(2)
	if err != nil {
		b.Fatal(err)
	}
	srv := pup.NewEndpoint(sa, pup.Config{})
	srv.Listen()
	cli := pup.NewEndpoint(sb, pup.Config{Seed: 1})
	conn, err := cli.Dial(1)
	if err != nil {
		b.Fatal(err)
	}
	poll := func() {
		if _, err := cli.Poll(); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Poll(); err != nil {
			b.Fatal(err)
		}
	}
	var peer *pup.Conn
	for tries := 0; peer == nil; tries++ {
		if tries > 1000 {
			b.Fatal("pup probe: connection never opened")
		}
		poll()
		peer, _ = srv.Accept()
	}
	msg := []ether.Word{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
		echoed := false
		for tries := 0; ; tries++ {
			if tries > 1000 {
				b.Fatal("pup probe: round trip never completed")
			}
			poll()
			if !echoed {
				if data, ok := peer.Recv(); ok {
					if err := peer.Send(data); err != nil {
						b.Fatal(err)
					}
					echoed = true
				}
			}
			if _, ok := conn.Recv(); ok {
				break
			}
		}
	}
}

// probeEtherSendRecv is one packet sent and taken off the receiver's queue.
func probeEtherSendRecv(b *testing.B) {
	wire := ether.New(nil)
	sa, err := wire.Attach(1)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := wire.Attach(2)
	if err != nil {
		b.Fatal(err)
	}
	pkt := ether.Packet{Dst: 2, Payload: make([]ether.Word, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sa.Send(pkt); err != nil {
			b.Fatal(err)
		}
		if _, ok := sb.Recv(); !ok {
			b.Fatal("ether probe: packet not delivered")
		}
	}
}

// probeFleetHandoff is one Yield: the machine parks and the engine resumes
// it in the next window.
func probeFleetHandoff(b *testing.B) {
	n := b.N
	eng := fleet.New(fleet.MaxRounds(n + 1))
	eng.Add(fleet.MachineConfig{Name: "probe", Clock: sim.NewClock(), Program: func(m *fleet.Machine) error {
		for i := 0; i < n; i++ {
			m.Yield()
		}
		return nil
	}})
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

func probeEmitNil(b *testing.B) { probeEmit(b, nil) }

func probeEmitLive(b *testing.B) { probeEmit(b, trace.New(1024)) }

// probeEmit is one instant event emitted into rec.
func probeEmit(b *testing.B, rec *trace.Recorder) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(time.Duration(i), trace.KindDiskOp, "op", int64(i), 0)
	}
}
