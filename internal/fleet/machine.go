package fleet

import (
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
)

// MachineConfig describes one actor in the fleet.
type MachineConfig struct {
	// Name identifies the machine in errors and diagnostics.
	Name string
	// Clock is the machine's own clock (required): each machine carries
	// its local time, and no other machine of the engine may advance it.
	Clock *sim.Clock
	// Station is the machine's ether attachment, if any. The engine
	// installs the station's delivery hook and re-reads its earliest
	// scheduled arrival whenever a delivery is scheduled, so a machine
	// blocked waiting for traffic wakes exactly when the packet arrives. A
	// station belongs to one machine at a time.
	Station *ether.Station
	// Stations lists additional attachments for machines with more than one
	// (a cluster replica serves on one station and audits peers from
	// another). The engine watches the earliest arrival across all of them.
	Stations []*ether.Station
	// Daemon marks a machine that serves others and never finishes on its
	// own (a file server). When only daemons remain, the engine sets the
	// draining flag and wakes them one last time; a daemon's program polls
	// Draining and returns.
	Daemon bool
	// StartAt is the machine's first wake time — the boot stagger.
	StartAt time.Duration
	// Program is the machine's life: called once on first wake, it runs
	// until it parks (Sync, Idle, Yield) or returns. Its error fails the
	// whole fleet.
	Program func(*Machine) error
}

// fleetAbort unwinds a machine's program when the engine shuts the fleet
// down after another machine's error.
type fleetAbort struct{}

// Machine is one actor: a coroutine (iter.Pull) running its program. The
// engine resumes it with next and it parks with yield, so exactly one of
// (engine, machine) runs at a time per machine, and every field handoff is
// ordered by the coroutine switch.
type Machine struct {
	name    string
	idx     int
	daemon  bool
	clock   *sim.Clock
	sts     []*ether.Station
	program func(*Machine) error

	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// Engine-side view: written by the machine before it yields, read by
	// the engine after; and vice versa for horizon and draining.
	wake     time.Duration
	effWake  time.Duration
	horizon  time.Duration
	draining bool
	done     bool
	err      error

	// slot is the machine's index in the engine's event queue (-1: not
	// queued — running in the current window, or finished). dirty marks
	// a machine already on the engine's dirty list; the engine's dirtyMu
	// guards it.
	slot  int
	dirty bool
}

// effectiveWake is the time the machine is next due: its yielded wake,
// capped by the earliest delivery scheduled on any of its stations (but not
// before its own clock). The engine calls it at barriers, when no machine
// runs.
func (m *Machine) effectiveWake() time.Duration {
	w := m.wake
	for _, st := range m.sts {
		if a, ok := st.EarliestArrival(); ok {
			if now := m.clock.Now(); a < now {
				a = now
			}
			if a < w {
				w = a
			}
		}
	}
	return w
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// Clock returns the machine's own clock.
func (m *Machine) Clock() *sim.Clock { return m.clock }

// Draining reports whether the fleet is shutting down: every non-daemon
// machine has finished and the engine has woken the daemons to exit.
func (m *Machine) Draining() bool { return m.draining }

// Yield parks the machine with a wake at its current time: the cooperative
// "give the others a turn" point.
func (m *Machine) Yield() { m.park(m.clock.Now()) }

// Sync parks the machine if its local clock has reached the window horizon.
// The actor contract: call Sync before every observation of the ether. A
// machine is free to overrun the horizon on its own work (disk transfers
// routinely do), but before it looks at the wire again it must let the
// window catch up, or it would poll for packets that concurrently running
// machines may not have sent yet.
func (m *Machine) Sync() {
	for m.clock.Now() >= m.horizon {
		m.park(m.clock.Now())
	}
}

// Idle parks the machine until something is due: the earliest deadline its
// components requested on the clock (Clock.RequestWake), or — if none — the
// next delivery scheduled for its station, which the engine watches on the
// machine's behalf. Call it when a poll did no work.
func (m *Machine) Idle() {
	wake := never
	if d, ok := m.clock.NextWake(); ok {
		m.clock.ClearWake()
		if now := m.clock.Now(); d < now {
			d = now
		}
		wake = d
	}
	m.park(wake)
}

// PollUntil is a fleet program's poll loop, the one place the actor contract
// is written down. Until done reports true it calls sync (Machine.Sync, so
// the window catches up before the program looks at the wire), then poll,
// and it returns the first poll error. When a poll did no work it calls idle
// (Machine.Idle), but only after asking done again: a poll can end the wait
// without doing work — a connection that exhausts its retries inside it
// fails and requests no further wake — and parking then would block the
// machine forever. A caller with a deadline of its own requests the wake in
// idle, just before parking, so no wake is left on the clock once the loop
// returns.
func PollUntil(sync, idle func(), poll func() (bool, error), done func() bool) error {
	for !done() {
		sync()
		worked, err := poll()
		if err != nil {
			return err
		}
		if !worked && !done() {
			idle()
		}
	}
	return nil
}

// park yields control to the engine with the given next wake time and
// returns when resumed (see Engine.stepAt). On resume the machine's clock
// has jumped to the granted wake time — which may be later than requested,
// when the engine woke it for a delivery instead. A false yield is the
// engine stopping the fleet: park unwinds the program.
func (m *Machine) park(wake time.Duration) {
	m.wake = wake
	if !m.yield(struct{}{}) {
		panic(fleetAbort{})
	}
}

// runner is the machine's coroutine body, entered at its first wake: run the
// program and record how it ended. Returning hands control back to the
// engine for the last time.
func (m *Machine) runner(yield func(struct{}) bool) {
	m.yield = yield
	m.err = m.invoke()
	m.done = true
}

// invoke runs the program, converting an engine abort into a quiet exit.
// Any other panic propagates to whoever resumed the machine.
func (m *Machine) invoke() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fleetAbort); !ok {
				panic(r)
			}
		}
	}()
	return m.program(m)
}
