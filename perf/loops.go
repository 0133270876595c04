package main

// What the fleet workloads share: seed derivation, the machine loops, and
// the store-and-fetch rig fanin and bulk-lossy are built on. Every loop
// follows the fleet's actor contract — Sync before observing the wire, Idle
// after a poll that moved nothing — and times its polls as spans when
// traced.

import (
	"bytes"
	"fmt"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fileserver"
	"altoos/internal/fleet"
	"altoos/internal/pup"
	"altoos/internal/sim"
)

// mix derives an independent 64-bit seed for stream tag of a run seeded
// with seed (the splitmix64 finalizer), so every consumer of randomness has
// its own sequence and none depends on another's draw count.
func mix(seed, tag uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + tag*0xD1B54A32D192ED03 + 1
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fill overwrites buf with pseudo-random bytes.
func fill(rnd *sim.Rand, buf []byte) {
	for i := 0; i < len(buf); i += 8 {
		x := rnd.Uint64()
		for j := i; j < i+8 && j < len(buf); j++ {
			buf[j] = byte(x)
			x >>= 8
		}
	}
}

// serve is a server daemon: poll until the fleet drains.
func serve(t *mtrace, poll func() (bool, error)) func(*fleet.Machine) error {
	return t.program(func(m *fleet.Machine) error {
		for !m.Draining() {
			t.sync(m)
			s := t.begin(spServerPoll)
			worked, err := poll()
			t.endWorked(s, worked)
			if err != nil {
				return err
			}
			if !worked {
				t.idle(m)
			}
		}
		return nil
	})
}

// await polls one fileserver transfer to completion and returns its error.
func await(m *fleet.Machine, t *mtrace, cl *fileserver.Client) error {
	if err := pollUntil(m, t, cl, cl.Done); err != nil {
		return err
	}
	_, err := cl.Result()
	return err
}

// awaitClosed polls until the client's connection has closed.
func awaitClosed(m *fleet.Machine, t *mtrace, cl *fileserver.Client) error {
	return pollUntil(m, t, cl, func() bool { return cl.Conn().State() == pup.StateClosed })
}

// pollUntil polls cl until done reports true. It checks done after every
// poll, before idling: a poll can end the wait without doing work (a
// connection that exhausts its retries closes inside it and asks for no
// further wake), and idling then would park the machine forever.
func pollUntil(m *fleet.Machine, t *mtrace, cl *fileserver.Client, done func() bool) error {
	for !done() {
		t.sync(m)
		s := t.begin(spClientPoll)
		worked, err := cl.Poll()
		t.endWorked(s, worked)
		if err != nil {
			return err
		}
		if !worked && !done() {
			t.idle(m)
		}
	}
	return nil
}

// fileServer builds the server both store-and-fetch workloads use: a
// Diablo31 pack at station 1 holding every client's file at size bytes, its
// clock restarted at zero, since the pack was set up before the timeline.
// The files exist before timing starts so the pack's layout is the same for
// every seed: left to the first stores, where files land would depend on
// the order requests win the wire, and with it every seek distance and
// simulated latency.
func fileServer(e *env, wire *ether.Network, files []string, size int) (*machine, *ether.Station, *fileserver.Server, error) {
	srv := e.newMachine("server", sim.NewClock())
	st, err := wire.Attach(1)
	if err != nil {
		return nil, nil, nil, err
	}
	st.SetClock(srv.clock)
	st.SetRecorder(srv.rec)
	drv, err := disk.NewDrive(disk.Diablo31(), 1, srv.clock)
	if err != nil {
		return nil, nil, nil, err
	}
	drv.SetRecorder(srv.rec)
	fs, err := file.Format(drv)
	if err != nil {
		return nil, nil, nil, err
	}
	root, err := dir.InitRoot(fs)
	if err != nil {
		return nil, nil, nil, err
	}
	var page [disk.PageWords]disk.Word
	for _, name := range files {
		f, err := fs.Create(name)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := root.Insert(name, f.FN()); err != nil {
			return nil, nil, nil, err
		}
		for pn, left := 1, size; ; pn++ {
			n := min(left, disk.PageBytes)
			if err := f.WritePage(disk.Word(pn), &page, n); err != nil {
				return nil, nil, nil, err
			}
			if left -= n; n < disk.PageBytes {
				break
			}
		}
		if err := f.Sync(); err != nil {
			return nil, nil, nil, err
		}
	}
	server := fileserver.NewServer(fs, pup.NewEndpoint(st, pup.Config{}))
	srv.clock.Reset()
	return srv, st, server, nil
}

// roundTripper is one client machine of a store-and-fetch workload.
type roundTripper struct {
	m   *machine
	st  *ether.Station
	ep  *pup.Endpoint
	rnd *sim.Rand
}

// roundTrips is the timed phase fanin and bulk-lossy share: the server runs
// as a daemon while each client, over one connection, runs rounds of
// store, fetch and verify on a file named after itself, each payload
// size(rnd) bytes of fresh content. Client i's round r is ops 2(i·rounds+r)
// (the store) and 2(i·rounds+r)+1 (the fetch).
func roundTrips(e *env, wire *ether.Network, srv *machine, srvSt *ether.Station, server *fileserver.Server,
	cs []roundTripper, size func(*sim.Rand) int, maxSize, rounds int) error {
	eng := fleet.New(fleet.Workers(e.workers), fleet.Medium(wire))
	eng.Add(fleet.MachineConfig{Name: srv.name, Clock: srv.clock, Station: srvSt, Daemon: true, Program: serve(srv.tr, server.Poll)})
	for i, c := range cs {
		i, c := i, c
		buf := make([]byte, maxSize)
		eng.Add(fleet.MachineConfig{
			Name:    c.m.name,
			Clock:   c.m.clock,
			Station: c.st,
			StartAt: c.m.clock.Now(),
			Program: c.m.tr.program(func(m *fleet.Machine) error {
				t := c.m.tr
				cl := fileserver.NewClient(c.ep)
				if err := cl.Connect(srvSt.Addr()); err != nil {
					return err
				}
				for r := 0; r < rounds; r++ {
					data := buf[:size(c.rnd)]
					fill(c.rnd, data)
					id := (i*rounds + r) * 2
					t.setOp(id)
					start := c.m.clock.Now()
					if err := cl.Store(c.m.name, data); err != nil {
						return err
					}
					if err := await(m, t, cl); err != nil {
						return fmt.Errorf("%s store: %w", c.m.name, err)
					}
					e.ops.done(id, c.m.clock.Now()-start, true)

					t.setOp(id + 1)
					start = c.m.clock.Now()
					if err := cl.Fetch(c.m.name); err != nil {
						return err
					}
					if err := await(m, t, cl); err != nil {
						return fmt.Errorf("%s fetch: %w", c.m.name, err)
					}
					got, _ := cl.Result() // await returned Result's error
					e.ops.done(id+1, c.m.clock.Now()-start, bytes.Equal(got, data))
				}
				t.setOp(-1)
				if err := cl.Close(); err != nil {
					return err
				}
				return awaitClosed(m, t, cl)
			}),
		})
	}
	return e.runEngine(eng, true)
}
