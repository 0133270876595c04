package experiments

// E10 and E11 measure the network story past the paper's demo scale: §1
// claims an open system where only the packet representation is standardized
// and "radically different" programs interoperate over the 3 Mb/s Ethernet.
// That claim is empty on a perfect wire — so both experiments run the
// reliable transport and the multi-client file server over ether.FaultMedium
// and measure what loss actually costs.

import (
	"bytes"
	"fmt"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/fileserver"
	"altoos/internal/pup"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// netRig is one simulated machine room: a wire, a server with a formatted
// disk behind it, and n client stations.
type netRig struct {
	clock   *sim.Clock
	wire    *ether.Network
	srv     *fileserver.Server
	clients []*fileserver.Client
}

// newNetRig wires the machine room to one clock with per-machine recorders:
// the server's disk and station record into "server" and each client
// station into "clientN"; a packet's send and fault verdicts belong to the
// machine that sent it.
func newNetRig(n int, machine func(string) *trace.Recorder) (*netRig, error) {
	clock := sim.NewClock()
	wire := ether.New(clock)
	srvRec := machine("server")
	drv, err := disk.NewDrive(disk.Diablo31(), 1, clock)
	if err != nil {
		return nil, err
	}
	drv.SetRecorder(srvRec)
	fs, err := file.Format(drv)
	if err != nil {
		return nil, err
	}
	if _, err := dir.InitRoot(fs); err != nil {
		return nil, err
	}
	sst, err := wire.Attach(1)
	if err != nil {
		return nil, err
	}
	sst.SetRecorder(srvRec)
	rig := &netRig{
		clock: clock,
		wire:  wire,
		srv:   fileserver.NewServer(fs, pup.NewEndpoint(sst, pup.Config{})),
	}
	for i := 0; i < n; i++ {
		cst, err := wire.Attach(ether.Addr((2 + i) & 0xFFFF))
		if err != nil {
			return nil, err
		}
		cst.SetRecorder(machine(fmt.Sprintf("client%d", i)))
		c := fileserver.NewClient(pup.NewEndpoint(cst, pup.Config{Seed: uint64(i + 1)}))
		if err := c.Connect(1); err != nil {
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	return rig, nil
}

// netOp is one scripted transfer: store data under name, or fetch name and
// expect data back.
type netOp struct {
	store bool
	name  string
	data  []byte
}

// runScripts drives every client through its op list concurrently: one
// poll loop over the whole machine room, the server first and then each
// client, round after round, until a round finds no client with work left —
// the loaded-server shape, many sessions on one clock (§2: the program is
// its own scheduler). It returns the number of corrupted fetches (payload
// mismatches the reliable transport failed to hide) and the total data
// bytes moved.
func (r *netRig) runScripts(scripts [][]netOp) (corrupt int, bytesMoved int64, err error) {
	idx := make([]int, len(scripts))
	started := make([]bool, len(scripts))
	for round := 0; round < 4_000_000; round++ {
		if _, err := r.srv.Poll(); err != nil {
			return corrupt, bytesMoved, err
		}
		running := false
		for i, c := range r.clients {
			if _, err := c.Poll(); err != nil {
				return corrupt, bytesMoved, err
			}
			if idx[i] >= len(scripts[i]) {
				continue
			}
			running = true
			op := scripts[i][idx[i]]
			switch {
			case !started[i]:
				if op.store {
					err = c.Store(op.name, op.data)
				} else {
					err = c.Fetch(op.name)
				}
				if err != nil {
					return corrupt, bytesMoved, err
				}
				started[i] = true
			case c.Done():
				got, err := c.Result()
				if err != nil {
					return corrupt, bytesMoved, fmt.Errorf("client %d %s %q: %w", i, opName(op), op.name, err)
				}
				if !op.store && !bytes.Equal(got, op.data) {
					corrupt++
				}
				bytesMoved += int64(len(op.data))
				idx[i]++
				started[i] = false
			}
		}
		if !running {
			return corrupt, bytesMoved, nil
		}
	}
	return corrupt, bytesMoved, fmt.Errorf("experiments: transfers never completed")
}

func opName(op netOp) string {
	if op.store {
		return "store"
	}
	return "fetch"
}

// closeAll closes every client connection and polls the room — clients
// first, server last — until every connection is closed and the server has
// retired the sessions, so the per-session trace spans are emitted.
func (r *netRig) closeAll() error {
	for _, c := range r.clients {
		if err := c.Close(); err != nil {
			return err
		}
	}
	for round := 0; round < 1_000_000; round++ {
		open := false
		for _, c := range r.clients {
			if _, err := c.Poll(); err != nil {
				return err
			}
			if c.Conn().State() != pup.StateClosed {
				open = true
			}
		}
		if _, err := r.srv.Poll(); err != nil {
			return err
		}
		if !open && r.srv.Stats().Active == 0 {
			return nil
		}
	}
	return fmt.Errorf("experiments: sessions never closed")
}

// netPattern builds deterministic transfer content.
func netPattern(n, salt int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*11 + salt*17)
	}
	return out
}

// e10LoadedServer runs 8 client stations hammering one file server over a
// wire losing 10% of its packets (§1's open-system claim, under load). The
// server and each client record into their own machine's recorder, and the
// retransmit evidence is the counters summed across the nine.
func e10LoadedServer(_ int, machine func(string) *trace.Recorder) (*Result, error) {
	recs := newRecorders(machine)
	const clients = 8
	r, err := newNetRig(clients, recs.get)
	if err != nil {
		return nil, err
	}
	r.wire.InjectFaults(ether.FaultConfig{
		Seed:    42,
		Drop:    ether.Rate{Num: 1, Den: 10},
		Dup:     ether.Rate{Num: 1, Den: 50},
		Corrupt: ether.Rate{Num: 1, Den: 50},
	})

	// Each client stores a file, reads it back, overwrites it with a
	// different size (growth for even clients, truncation for odd), and
	// reads again — every disk path the server has, under contention.
	scripts := make([][]netOp, clients)
	for i := range scripts {
		name := fmt.Sprintf("load%d", i)
		v1 := netPattern(3*disk.PageBytes+100*i+57, i)
		size2 := 5*disk.PageBytes + 201
		if i%2 == 1 {
			size2 = disk.PageBytes + 33*i
		}
		v2 := netPattern(size2, i+100)
		scripts[i] = []netOp{
			{store: true, name: name, data: v1},
			{name: name, data: v1},
			{store: true, name: name, data: v2},
			{name: name, data: v2},
		}
	}

	corrupt, moved, err := r.runScripts(scripts)
	if err != nil {
		return nil, err
	}
	if err := r.closeAll(); err != nil {
		return nil, err
	}
	if corrupt != 0 {
		return nil, fmt.Errorf("e10: %d corrupted transfers leaked through the reliable transport", corrupt)
	}
	retrans := recs.counter("pup.retransmit")
	drops := recs.counter("ether.drop")
	if retrans == 0 {
		return nil, fmt.Errorf("e10: 10%% loss produced no retransmissions; the fault medium is not wired in")
	}

	simSec := r.clock.Now().Seconds()
	words := float64(moved) / 2
	st := r.srv.Stats()
	res := &Result{
		ID:    "E10",
		Title: "loaded file server over a 10%-loss wire",
		Claim: "§1: only the packet representation is standardized; different programs interoperate over the network",
	}
	res.add("clients x transfers", "%d x %d, %d bytes of payload", clients, len(scripts[0]), moved)
	res.add("corrupted transfers", "%d (checksum + retransmission hid every fault)", corrupt)
	res.add("packets dropped by the medium", "%d (plus %d duplicated, %d corrupted)",
		drops, recs.counter("ether.dup"), recs.counter("ether.corrupt"))
	res.add("retransmissions", "%d (bounded: %.2f per drop)", retrans, float64(retrans)/float64(drops))
	res.add("sessions served", "%d concurrent, %d stores, %d fetches", st.Sessions, st.Stores, st.Fetches)
	res.add("simulated completion time", "%.2f s", simSec)
	res.add("goodput", "%.0f words/s of file data", words/simSec)
	res.metric("sim_seconds", simSec)
	res.metric("goodput_words_per_sec", words/simSec)
	res.metric("retransmits", float64(retrans))
	return res, nil
}

// e11LossSweep measures steady-state goodput against loss rate, 0% to 20%.
// It primes each client's file once (uncounted: disk formatting
// and page-growth writes say nothing about the transport) and then measures
// a phase of same-size overwrites and fetches — warm congestion windows,
// chained interior disk transfers, the wire under real pressure. Every sweep
// point builds three machines of its own, named for the point
// (loss10/server, loss10/client0, loss10/client1): each point's clock
// starts at zero, so machines shared across points would fold five
// timelines onto one time axis. All numbers are clock deltas and deltas of
// counters summed over every machine, around the measured phase.
func e11LossSweep(_ int, machine func(string) *trace.Recorder) (*Result, error) {
	recs := newRecorders(machine)
	res := &Result{
		ID:    "E11",
		Title: "steady-state goodput vs. packet loss",
		Claim: "§1: the network is a facility, not a guarantee — software above the packet layer pays for loss",
	}
	// A 16-page file per client: long enough that every transfer keeps a
	// window's worth of packets in flight (selective repeat has holes to
	// cover), short enough that five sweep points stay cheap.
	const fileBytes = 16*disk.PageBytes - 76
	for _, lossPct := range []int{0, 5, 10, 15, 20} {
		point := func(name string) *trace.Recorder {
			return recs.get(fmt.Sprintf("loss%d/%s", lossPct, name))
		}
		r, err := newNetRig(2, point)
		if err != nil {
			return nil, err
		}
		r.wire.InjectFaults(ether.FaultConfig{
			Seed: 7,
			Drop: ether.Rate{Num: lossPct, Den: 100},
		})
		prime := make([][]netOp, 2)
		for i := range prime {
			prime[i] = []netOp{{store: true, name: fmt.Sprintf("sweep%d", i), data: netPattern(fileBytes, i+lossPct)}}
		}
		if _, _, err := r.runScripts(prime); err != nil {
			return nil, fmt.Errorf("loss %d%% prime: %w", lossPct, err)
		}
		markClock := r.clock.Now()
		markRetrans := recs.counter("pup.retransmit")
		markRexWords := recs.counter("pup.retransmit.words")
		markDataWords := recs.counter("pup.data.words")
		markEtherWords := recs.counter("ether.words")
		scripts := make([][]netOp, 2)
		for i := range scripts {
			name := fmt.Sprintf("sweep%d", i)
			v2 := netPattern(fileBytes, i+lossPct+50)
			v3 := netPattern(fileBytes, i+lossPct+100)
			scripts[i] = []netOp{
				{store: true, name: name, data: v2},
				{name: name, data: v2},
				{store: true, name: name, data: v3},
				{name: name, data: v3},
			}
		}
		corrupt, moved, err := r.runScripts(scripts)
		if err != nil {
			return nil, fmt.Errorf("loss %d%%: %w", lossPct, err)
		}
		phase := r.clock.Now() - markClock
		retrans := recs.counter("pup.retransmit") - markRetrans
		rexWords := recs.counter("pup.retransmit.words") - markRexWords
		dataWords := recs.counter("pup.data.words") - markDataWords
		wireBusy := time.Duration(recs.counter("ether.words")-markEtherWords) * ether.WireTime
		if err := r.closeAll(); err != nil {
			return nil, fmt.Errorf("loss %d%%: %w", lossPct, err)
		}
		if corrupt != 0 {
			return nil, fmt.Errorf("loss %d%%: %d corrupted transfers", lossPct, corrupt)
		}
		goodput := float64(moved) / 2 / phase.Seconds()
		// Retransmitted-words ratio: what fraction of the data words put on
		// the wire were repeats. Go-back-N resent whole windows per hole;
		// selective repeat resends only the holes.
		ratio := 0.0
		if dataWords+rexWords > 0 {
			ratio = float64(rexWords) / float64(dataWords+rexWords)
		}
		// Wire-idle fraction: the share of the measured phase the 3 Mb/s
		// wire spent silent — time the transport failed to use.
		idle := 1 - wireBusy.Seconds()/phase.Seconds()
		res.add(fmt.Sprintf("loss %2d%%", lossPct),
			"%6.0f words/s goodput, %3d retransmits, %4.1f%% resent words, %4.1f%% wire idle, %.2f s measured",
			goodput, retrans, 100*ratio, 100*idle, phase.Seconds())
		res.metric(fmt.Sprintf("goodput_words_per_sec_loss%d", lossPct), goodput)
		res.metric(fmt.Sprintf("retransmits_loss%d", lossPct), float64(retrans))
		res.metric(fmt.Sprintf("retransmitted_words_ratio_loss%d", lossPct), ratio)
		res.metric(fmt.Sprintf("wire_idle_frac_loss%d", lossPct), idle)
	}
	return res, nil
}
