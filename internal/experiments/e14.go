package experiments

// E14 is the fleet-scale experiment: a hundred Altos, each booting its own
// OS from its own pack, fan in on one file server over a shared lossy
// ether. Every machine is a real actor on the windowed fleet scheduler —
// its own clock, its own station, its own disk — and the schedule is
// byte-identically replayable across worker counts, so the experiment
// doubles as the determinism gate for internal/fleet. The paper's
// single-user machines (§1) only become a system when a building's worth of
// them share servers; this is that building.

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"altoos/internal/core"
	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

const (
	// e14Machines is the default fleet size: one server plus this many
	// client Altos.
	e14Machines = 100
	// e14BootStagger separates the client boot wakes so the event queue
	// tie-breaks on time, not only on machine sequence.
	e14BootStagger = 160 * time.Nanosecond
	// e14LocalPages is the local journal each Alto writes and re-reads on
	// its own disk before touching the network.
	e14LocalPages = 3
)

// e14MiniGeometry is each client Alto's pack: Diablo31 head and arm timing
// on a short stack of cylinders, so a hundred Formats stay cheap while every
// seek and rotation still costs real simulated time.
func e14MiniGeometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/16"
	g.Cylinders = 16
	return g
}

// e14Word is the deterministic content pattern for machine i's pages and
// its stored file.
func e14Word(machine, page, i int) disk.Word {
	return disk.Word((machine*37 + page*11 + i*3) & 0xFFFF)
}

// e14Payload builds machine i's network payload: sizes vary per machine so
// the server sees a mix of transfer lengths.
func e14Payload(i int) []byte {
	data := make([]byte, 300+(i%7)*90)
	for j := range data {
		data[j] = byte((i*13 + j*7) & 0xFF)
	}
	return data
}

// e14FleetFanIn is the registry entry: the experiment at its default scale.
func e14FleetFanIn(workers int, machine func(string) *trace.Recorder) (*Result, error) {
	return E14FanIn(e14Machines, workers, machine)
}

// E14FanIn runs machines client Altos against one file server on a windowed
// fleet engine with the given worker-pool width. machine maps a machine
// name to its trace recorder; nil gives every machine a small private
// recorder (counters only). Every metric in the Result is a function of the
// schedule alone — wall-clock throughput belongs to the caller's stopwatch.
func E14FanIn(machines, workers int, machine func(string) *trace.Recorder) (*Result, error) {
	if machines < 1 {
		return nil, fmt.Errorf("e14: need at least 1 client machine, got %d", machines)
	}
	recs := newRecorders(machine)

	// The wire is shared; the fleet engine feeds it each window's horizon.
	// The loss rates are modest — enough to exercise retransmission on a
	// hundred concurrent flows without turning the run into a
	// retransmission benchmark.
	wire := ether.New(nil)
	wire.InjectFaults(ether.FaultConfig{
		Seed:    14,
		Drop:    ether.Rate{Num: 1, Den: 200},
		Corrupt: ether.Rate{Num: 1, Den: 400},
	})
	eng := fleet.New(fleet.Workers(workers), fleet.Medium(wire))

	// The server: a full Diablo31 behind a formatted file system, serving
	// as a daemon — it runs until every client is done and the engine
	// drains it.
	var clocks []*sim.Clock
	srvClock := sim.NewClock()
	clocks = append(clocks, srvClock)
	srvRec := recs.get("server")
	srvSt, err := wire.Attach(1)
	if err != nil {
		return nil, err
	}
	srvSt.SetClock(srvClock)
	srvSt.SetRecorder(srvRec)
	srvDrv, err := disk.NewDrive(disk.Diablo31(), 1, srvClock)
	if err != nil {
		return nil, err
	}
	srvFS, err := file.Format(srvDrv)
	if err != nil {
		return nil, err
	}
	if _, err := dir.InitRoot(srvFS); err != nil {
		return nil, err
	}
	srv := fileserver.NewServer(srvFS, pup.NewEndpoint(srvSt, pup.Config{}))
	// The server was up before the building woke: formatting its pack is
	// not part of the experiment's timeline, so the drive records only
	// from here, its clock restarts at zero and the serve loop is the
	// whole program.
	srvDrv.SetRecorder(srvRec)
	srvClock.Reset()
	if err := eng.Add(fleet.MachineConfig{
		Name:    "server",
		Clock:   srvClock,
		Station: srvSt,
		Daemon:  true,
		Program: func(m *fleet.Machine) error {
			return fleet.PollUntil(m.Sync, m.Idle, srv.Poll, m.Draining)
		},
	}); err != nil {
		return nil, err
	}

	// The clients: each Alto boots its own OS from its own mini pack, runs
	// a local file workload, then stores its payload on the server, fetches
	// it back, verifies it byte for byte, and closes. Clocks, stations and
	// recorders are made here, in creation order; everything else happens
	// inside the machine's own program, on its own time.
	for i := 0; i < machines; i++ {
		i := i
		clk := sim.NewClock()
		clocks = append(clocks, clk)
		st, err := wire.Attach(ether.Addr((2 + i) & 0xFFFF))
		if err != nil {
			return nil, err
		}
		st.SetClock(clk)
		mrec := recs.get(fmt.Sprintf("alto%03d", i))
		st.SetRecorder(mrec)
		if err := eng.Add(fleet.MachineConfig{
			Name:    fmt.Sprintf("alto%03d", i),
			Clock:   clk,
			Station: st,
			StartAt: time.Duration(i+1) * e14BootStagger,
			Program: func(m *fleet.Machine) error {
				// Boot: format the local pack, install a root directory,
				// and bring up the OS proper on the drive.
				drv, err := disk.NewDrive(e14MiniGeometry(), disk.Word((2+i)&0xFFFF), clk)
				if err != nil {
					return err
				}
				drv.SetRecorder(mrec)
				if _, err := file.Format(drv); err != nil {
					return err
				}
				sys, err := core.New(core.Config{Drive: drv, Display: io.Discard})
				if err != nil {
					return fmt.Errorf("alto%03d boot: %w", i, err)
				}
				if _, err := dir.InitRoot(sys.FS); err != nil {
					return err
				}
				root, err := dir.OpenRoot(sys.FS)
				if err != nil {
					return err
				}

				// Local workload: a journal written and re-read on the
				// machine's own disk, all before the first packet.
				f, err := sys.FS.Create("journal")
				if err != nil {
					return err
				}
				var page [disk.PageWords]disk.Word
				for pn := 1; pn <= e14LocalPages; pn++ {
					for w := range page {
						page[w] = e14Word(i, pn, w)
					}
					if err := f.WritePage(disk.Word(pn), &page, disk.PageBytes); err != nil {
						return err
					}
				}
				if err := f.Sync(); err != nil {
					return err
				}
				if err := root.Insert("journal", f.FN()); err != nil {
					return err
				}
				for pn := 1; pn <= e14LocalPages; pn++ {
					if _, err := f.ReadPage(disk.Word(pn), &page); err != nil {
						return err
					}
					for w := range page {
						if page[w] != e14Word(i, pn, w) {
							return fmt.Errorf("alto%03d: journal page %d word %d corrupt", i, pn, w)
						}
					}
				}

				// Fan-in: store the payload on the server, fetch it back,
				// verify, close, each wait a fleet.PollUntil loop. The
				// server is disk-bound (one rotation per page, sessions
				// served in arrival order), so a whole building fanning in
				// queues up minutes of disk time — the clients' retry budget
				// must cover their place in that queue, or the transport
				// gives up on a server that is merely busy.
				cl := fileserver.NewClient(pup.NewEndpoint(st, pup.Config{
					Seed:       uint64(i + 1),
					MaxRTO:     time.Second,
					MaxRetries: 50 + 3*machines,
				}))
				if err := cl.Connect(1); err != nil {
					return err
				}
				data := e14Payload(i)
				name := fmt.Sprintf("alto%03d", i)
				if err := cl.Store(name, data); err != nil {
					return err
				}
				if err := awaitTransfer(m, cl); err != nil {
					return fmt.Errorf("alto%03d store: %w", i, err)
				}
				if err := cl.Fetch(name); err != nil {
					return err
				}
				if err := awaitTransfer(m, cl); err != nil {
					return fmt.Errorf("alto%03d fetch: %w", i, err)
				}
				got, err := cl.Result()
				if err != nil {
					return err
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("alto%03d: fetched %d bytes differ from the %d stored", i, len(got), len(data))
				}
				if err := cl.Close(); err != nil {
					return err
				}
				return awaitClosed(m, cl)
			},
		}); err != nil {
			return nil, err
		}
	}

	if err := eng.Run(); err != nil {
		return nil, err
	}

	// Every metric below is deterministic: simulated times, activation
	// counts and counters are functions of the schedule, never of the host.
	var simEnd time.Duration
	for _, c := range clocks {
		if t := c.Now(); t > simEnd {
			simEnd = t
		}
	}
	var bytesMoved int64
	for i := 0; i < machines; i++ {
		bytesMoved += 2 * int64(len(e14Payload(i))) // stored + fetched
	}
	steps := eng.Steps()
	retrans := recs.counter("pup.retransmit")
	drops := recs.counter("ether.drop")
	sends := recs.counter("ether.send")

	res := &Result{
		ID:    "E14",
		Title: "fleet fan-in: a hundred Altos boot and share one file server",
		Claim: "§1: single-user machines plus one shared wire scale to a building-sized system",
	}
	res.add("fleet", "%d client Altos + 1 server, %d-worker windowed schedule", machines, workers)
	res.add("per-machine boot", "format, OS bring-up, %d-page journal on a private %s", e14LocalPages, e14MiniGeometry().Name)
	res.add("data through the server", "%d bytes stored and fetched back intact", bytesMoved)
	res.add("packets sent / dropped by the medium", "%d / %d", sends, drops)
	res.add("retransmissions", "%d", retrans)
	res.add("scheduler activations", "%d over %.3f s simulated", steps, simEnd.Seconds())
	res.metric("machines", float64(machines+1))
	res.metric("sim_seconds", simEnd.Seconds())
	res.metric("scheduler_steps", float64(steps))
	res.metric("retransmits", float64(retrans))
	res.metric("bytes_moved", float64(bytesMoved))
	return res, nil
}

// awaitTransfer polls one fileserver transfer to completion on a fleet
// machine and returns its error. E14's and E15's clients wait with it.
func awaitTransfer(m *fleet.Machine, cl *fileserver.Client) error {
	if err := fleet.PollUntil(m.Sync, m.Idle, cl.Poll, cl.Done); err != nil {
		return err
	}
	_, err := cl.Result()
	return err
}

// awaitClosed polls a closing fileserver session on a fleet machine until
// its connection reports closed. A close that runs out of retries ends the
// wait too; the client carries on either way.
func awaitClosed(m *fleet.Machine, cl *fileserver.Client) error {
	return fleet.PollUntil(m.Sync, m.Idle, cl.Poll, func() bool {
		return cl.Conn().State() == pup.StateClosed
	})
}
