package main

// fanin: a building of client Altos share one file server over a lossy wire,
// as in E14, but each client keeps working for several rounds. With a
// hundred machines the server's queue never empties, and the host spends
// its time scheduling machines and handing control between them, so fleet
// engine changes show here first.

import (
	"fmt"
	"io"
	"time"

	"altoos/internal/core"
	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
)

var faninWorkload = &workload{
	name:    "fanin",
	workers: 2,
	setup:   setupFanin,
}

const (
	faninJournalPages = 3
	faninMinPayload   = 300
	faninMaxPayload   = 840
	faninBootStagger  = 160 * time.Nanosecond
)

// faninGeometry is each client's private pack: Diablo31 timing on a short
// cylinder stack, so a hundred formats stay cheap.
func faninGeometry() disk.Geometry {
	g := disk.Diablo31()
	g.Name = "Diablo31/16"
	g.Cylinders = 16
	return g
}

func setupFanin(e *env) (func() error, error) {
	clients, rounds := 100, 6
	if e.smoke {
		clients, rounds = 6, 2
	}
	wire := ether.New(nil)
	wire.InjectFaults(ether.FaultConfig{
		Seed:    mix(e.seed, 1),
		Drop:    ether.Rate{Num: 1, Den: 200},
		Corrupt: ether.Rate{Num: 1, Den: 400},
	})

	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("alto%03d", i)
	}
	srv, srvSt, server, err := fileServer(e, wire, names, faninMaxPayload)
	if err != nil {
		return nil, err
	}

	// Boot: every client formats its pack, brings up the OS and writes and
	// re-reads a journal, all before its first packet. The boot sends no
	// packets, so one worker runs it; two would only add thread handoffs to
	// the set-up time.
	boot := fleet.New(fleet.Medium(wire))
	alto := make([]*machine, clients)
	stations := make([]*ether.Station, clients)
	for i := range alto {
		i := i
		c := e.newMachine(names[i], sim.NewClock())
		st, err := wire.Attach(ether.Addr((2 + i) & 0xFFFF))
		if err != nil {
			return nil, err
		}
		st.SetClock(c.clock)
		st.SetRecorder(c.rec)
		alto[i], stations[i] = c, st
		boot.Add(fleet.MachineConfig{
			Name:    c.name,
			Clock:   c.clock,
			Station: st,
			StartAt: time.Duration(i+1) * faninBootStagger,
			Program: func(*fleet.Machine) error { return bootAlto(c, disk.Word((2+i)&0xFFFF), mix(e.seed, uint64(2000+i))) },
		})
	}
	if err := e.runEngine(boot, false); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	cs := make([]roundTripper, clients)
	for i, c := range alto {
		cs[i] = roundTripper{
			m:  c,
			st: stations[i],
			ep: pup.NewEndpoint(stations[i], pup.Config{
				Seed:   mix(e.seed, uint64(4000+i)),
				MaxRTO: time.Second,
				// A client waits behind the whole building in the server's
				// queue; its retry budget must outlast that wait.
				MaxRetries: 50 + 3*clients,
			}),
			rnd: sim.NewRand(mix(e.seed, uint64(3000+i))),
		}
	}
	e.ops.init(clients * rounds * 2)
	timed := func() error {
		return roundTrips(e, wire, srv, srvSt, server, cs, faninSize, faninMaxPayload, rounds)
	}
	return timed, nil
}

// faninSize draws a payload size.
func faninSize(rnd *sim.Rand) int {
	return faninMinPayload + rnd.Intn(faninMaxPayload-faninMinPayload+1)
}

// bootAlto brings one client Alto up on its own pack: format, OS, and a
// journal written and verified locally.
func bootAlto(c *machine, pack disk.Word, seed uint64) error {
	drv, err := disk.NewDrive(faninGeometry(), pack, c.clock)
	if err != nil {
		return err
	}
	drv.SetRecorder(c.rec)
	if _, err := file.Format(drv); err != nil {
		return err
	}
	sys, err := core.New(core.Config{Drive: drv, Display: io.Discard})
	if err != nil {
		return fmt.Errorf("%s boot: %w", c.name, err)
	}
	if _, err := dir.InitRoot(sys.FS); err != nil {
		return err
	}
	root, err := dir.OpenRoot(sys.FS)
	if err != nil {
		return err
	}
	f, err := sys.FS.Create("journal")
	if err != nil {
		return err
	}
	var page, got [disk.PageWords]disk.Word
	rnd := sim.NewRand(seed)
	for pn := 1; pn <= faninJournalPages; pn++ {
		for w := range page {
			page[w] = rnd.Word()
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
	rnd = sim.NewRand(seed)
	for pn := 1; pn <= faninJournalPages; pn++ {
		for w := range page {
			page[w] = rnd.Word()
		}
		if _, err := f.ReadPage(disk.Word(pn), &got); err != nil {
			return err
		}
		if got != page {
			return fmt.Errorf("%s: journal page %d corrupt", c.name, pn)
		}
	}
	return nil
}
