package main

// bulk-lossy: four clients move 32-page files through one server over E13's
// loss mix. With five machines scheduling is cheap; host and simulated time
// go to the transport's selective repeat, SACK, retransmission timers and
// the ether's fault verdicts. One worker keeps host_allocs_per_op exact.

import (
	"fmt"
	"time"

	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/pup"
	"altoos/internal/sim"
)

var bulkWorkload = &workload{
	name:    "bulk-lossy",
	workers: 1,
	setup:   setupBulk,
}

// bulkPages is the file size: a 32-page file, its last page partial.
const bulkPages = 32

// bulkSize draws a file size that fills exactly bulkPages pages.
func bulkSize(rnd *sim.Rand) int {
	return (bulkPages-1)*disk.PageBytes + 1 + rnd.Intn(disk.PageBytes-1)
}

func setupBulk(e *env) (func() error, error) {
	clients, rounds := 4, 400
	if e.smoke {
		clients, rounds = 2, 2
	}
	wire := ether.New(nil)
	wire.InjectFaults(ether.FaultConfig{
		Seed:    mix(e.seed, 1),
		Drop:    ether.Rate{Num: 1, Den: 10},
		Corrupt: ether.Rate{Num: 1, Den: 50},
	})
	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("client%d", i)
	}
	srv, srvSt, server, err := fileServer(e, wire, names, bulkPages*disk.PageBytes-1)
	if err != nil {
		return nil, err
	}
	cs := make([]roundTripper, clients)
	for i := range cs {
		c := e.newMachine(names[i], sim.NewClock())
		st, err := wire.Attach(ether.Addr((2 + i) & 0xFFFF))
		if err != nil {
			return nil, err
		}
		st.SetClock(c.clock)
		st.SetRecorder(c.rec)
		cs[i] = roundTripper{
			m:   c,
			st:  st,
			ep:  pup.NewEndpoint(st, pup.Config{Seed: mix(e.seed, uint64(4000+i)), MaxRTO: time.Second, MaxRetries: 100}),
			rnd: sim.NewRand(mix(e.seed, uint64(3000+i))),
		}
	}
	e.ops.init(clients * rounds * 2)
	timed := func() error {
		return roundTrips(e, wire, srv, srvSt, server, cs, bulkSize, bulkPages*disk.PageBytes, rounds)
	}
	return timed, nil
}
