//go:build go1.23

// Package fleet is the deterministic discrete-event scheduler that runs
// many interacting Altos on one virtual time axis. It succeeds the
// single-machine sim.Clock discipline: each machine is an actor that runs
// until it blocks on a timer, a disk rotation, or an ether delivery, then
// yields its next wake time into the engine's event queue.
//
// The engine executes in conservative lockstep. Its event queue is a heap of
// the live machines keyed by (effective wake, machine sequence); at every
// barrier it opens a window [T, T+L) from the earliest wake T, where the
// lookahead L is the ether's minimum propagation latency
// (ether.MinLatency): no send starting inside the window can arrive inside
// it, so every machine whose wake falls in the window can run concurrently
// without risking a causality violation. Machines execute across a worker
// pool via the crashpoint/scope atomic-cursor pattern; because each
// activation depends only on the machine's own state and on arrivals
// certified by the window horizon (see Network.SetHorizon), a run is
// byte-identically replayable across repeated runs and across -workers
// counts. The barrier costs work in proportion to what changed: only the
// machines that ran in the window and the machines whose stations got a
// delivery scheduled are re-keyed (see Engine.Add for the invariant this
// rests on).
//
// A machine room that shares one clock needs no engine: §2's Alto has no
// scheduler, and a program serving several activities alternates between
// them in a plain poll loop (E10, E11 and E13 do exactly that).
package fleet

import (
	"errors"
	"fmt"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altoos/internal/ether"
	"altoos/internal/sim"
	"altoos/internal/trace"
)

// never is the wake time of a machine blocked with no pending deadline:
// it runs again only when a delivery is scheduled for it (or the fleet
// drains, for daemons).
const never = time.Duration(1<<63 - 1)

// Errors.
var (
	// ErrRoundCap reports that the engine exceeded its round budget
	// without the fleet finishing.
	ErrRoundCap = errors.New("fleet: round cap exceeded")
	// ErrStalled reports a fleet where some non-daemon machine blocked
	// forever: every live machine waits on a delivery and no delivery is
	// scheduled.
	ErrStalled = errors.New("fleet: stalled")
)

// Engine schedules a set of machines over simulated time.
type Engine struct {
	workers   int
	maxRounds int
	net       *ether.Network

	machines []*Machine
	clocks   map[*sim.Clock]*Machine // each clock's one owner
	draining bool
	horizon  time.Duration
	steps    atomic.Int64

	// The event queue: every live machine, keyed by effective
	// wake. batch is the current window's machines, reused window to window.
	// live counts unfinished machines, users the unfinished non-daemons.
	queue       wakeQueue
	batch       []*Machine
	live, users int

	// dirty lists the machines whose stations got a delivery scheduled since
	// the last barrier, each once (Machine.dirty). Machines running on
	// worker goroutines append to it through their stations' delivery hooks.
	dirtyMu sync.Mutex
	dirty   []*Machine

	// The worker pool: workers-1 helper goroutines that live from Run's
	// start to its end. A window of two or more machines resets cursor,
	// sends its batch on work once per helper it needs and claims slots on
	// the calling goroutine too; barrier counts the helpers still claiming,
	// and exited the helpers still alive. A program's panic on any of them
	// is held until the barrier, then raised again on Run's goroutine:
	// panicked is the machine whose program raised panicValue.
	work       chan []*Machine
	cursor     atomic.Int64
	barrier    sync.WaitGroup
	exited     sync.WaitGroup
	panicMu    sync.Mutex
	panicked   *Machine
	panicValue any

	// checkBatch, when set, sees every window's batch before it runs. Only
	// tests set it: it is how the schedule-equivalence oracle watches.
	checkBatch func(batch []*Machine)
}

// Option configures an Engine.
type Option func(*Engine)

// Workers sets the worker-pool width (default 1).
// The schedule is byte-identical for every width; workers only change how
// much of a window runs wall-clock-concurrently.
func Workers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// MaxRounds bounds the number of windows before the engine gives up with
// ErrRoundCap. The default is 4,000,000.
func MaxRounds(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maxRounds = n
		}
	}
}

// Medium hands the engine the network the fleet communicates over. The
// engine publishes every window's horizon to it, which is what gates
// deliveries to certified arrivals.
func Medium(n *ether.Network) Option {
	return func(e *Engine) { e.net = n }
}

// New creates an engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:   1,
		maxRounds: 4_000_000,
		clocks:    map[*sim.Clock]*Machine{},
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Add registers a machine with the engine. Machines are stepped and
// tie-broken in creation order; creation order is part of the schedule and
// must itself be deterministic.
//
// The engine re-keys a machine only when it runs or when one of its
// stations gets a delivery scheduled, so it relies on a machine's effective
// wake changing through nothing else. Add refuses, with an error and
// without registering the machine, what could break that or let two
// machines of one window write one structure: a Clock another machine owns
// (it could advance it unseen), a station bound to another machine (its
// delivery hook names that machine), or a station recording into a
// recorder a station of another machine carries (a recorder has one writer
// and no lock). One machine's stations may share a recorder. The engine
// holds its stations' hooks from Add until Run returns.
func (e *Engine) Add(cfg MachineConfig) error {
	if cfg.Clock == nil {
		return fmt.Errorf("fleet: machine %s has no Clock; machines require their own", cfg.Name)
	}
	if other, ok := e.clocks[cfg.Clock]; ok {
		return fmt.Errorf("fleet: machine %s shares its Clock with machine %s", cfg.Name, other.name)
	}
	var sts []*ether.Station
	if cfg.Station != nil {
		sts = append(sts, cfg.Station)
	}
	sts = append(sts, cfg.Stations...)
	for _, st := range sts {
		if other := e.recorderOwner(st.TraceRecorder()); other != nil {
			return fmt.Errorf("fleet: machine %s: station %d records into machine %s's recorder; a recorder belongs to one machine", cfg.Name, st.Addr(), other.name)
		}
	}
	m := &Machine{
		name:    cfg.Name,
		idx:     len(e.machines),
		daemon:  cfg.Daemon,
		clock:   cfg.Clock,
		sts:     sts,
		program: cfg.Program,
		wake:    cfg.StartAt,
		horizon: never,
		slot:    -1,
	}
	mark := func() { e.markDirty(m) }
	for i, st := range sts {
		if err := st.OnDeliver(mark); err != nil {
			for _, bound := range sts[:i] {
				_ = bound.OnDeliver(nil) // removing a hook cannot fail
			}
			return fmt.Errorf("fleet: machine %s: station %d is already bound to another machine: %w", cfg.Name, st.Addr(), err)
		}
	}
	e.clocks[cfg.Clock] = m
	e.machines = append(e.machines, m)
	return nil
}

// recorderOwner returns the machine one of whose stations records into rec,
// or nil. A scan, not a map: it runs once per station at Add, and a map
// would cost every fleet allocations to save microseconds.
func (e *Engine) recorderOwner(rec *trace.Recorder) *Machine {
	if rec == nil {
		return nil
	}
	for _, m := range e.machines {
		for _, st := range m.sts {
			if st.TraceRecorder() == rec {
				return m
			}
		}
	}
	return nil
}

// markDirty records that one of m's stations got a delivery scheduled, so
// m's effective wake must be recomputed at the next barrier. It is the
// stations' delivery hook and runs on whichever goroutine sent.
func (e *Engine) markDirty(m *Machine) {
	e.dirtyMu.Lock()
	if !m.dirty {
		m.dirty = true
		e.dirty = append(e.dirty, m)
	}
	e.dirtyMu.Unlock()
}

// Run executes the fleet to completion: every non-daemon machine's program
// has returned, daemons have been drained, or an error or budget stop
// occurred. It must be called exactly once.
func (e *Engine) Run() error { return e.run(e.loopWindows) }

// run makes every machine a coroutine, starts the worker pool's helpers,
// drives the schedule with loop, then joins the helpers, unwinds the
// unfinished machines and releases the stations' delivery hooks. The
// unwinding is deferred, so it also runs when a program's panic propagates
// out of loop.
func (e *Engine) run(loop func() error) error {
	for _, m := range e.machines {
		m.next, m.stop = iter.Pull(m.runner)
	}
	helpers := min(e.workers, len(e.machines)) - 1
	e.work = make(chan []*Machine, max(helpers, 0))
	for h := 0; h < helpers; h++ {
		e.exited.Add(1)
		go e.help()
	}
	defer func() {
		close(e.work)
		e.exited.Wait()
		for _, m := range e.machines {
			m.stop()
			for _, st := range m.sts {
				_ = st.OnDeliver(nil) // removing a hook cannot fail
			}
		}
	}()
	return loop()
}

// loopWindows is the conservative parallel schedule: take the earliest wake
// off the event queue, open a lookahead window from it, run every machine
// inside it.
func (e *Engine) loopWindows() error {
	e.fillQueue()
	for round := 0; ; round++ {
		if done, err := e.window(round); done || err != nil {
			return err
		}
	}
}

// fillQueue puts every machine on the event queue under its initial wake.
func (e *Engine) fillQueue() {
	for _, m := range e.machines {
		e.live++
		if !m.daemon {
			e.users++
		}
		m.effWake = m.effectiveWake()
		e.queue.push(m)
	}
}

// window is one barrier and the window it opens. It reports true when the
// fleet has finished.
func (e *Engine) window(round int) (bool, error) {
	e.rekeyDirty()
	if e.live == 0 {
		return true, nil
	}
	if round >= e.maxRounds {
		return true, fmt.Errorf("%w after %d windows", ErrRoundCap, round)
	}
	batch := e.nextBatch()
	if e.checkBatch != nil {
		e.checkBatch(batch)
	}
	if len(batch) == 0 {
		// Every live machine is blocked on a delivery that will never
		// come. For a fleet of pure daemons that is the normal end: drain
		// them so they can observe Draining and return.
		if e.users == 0 {
			return false, e.drain()
		}
		return true, fmt.Errorf("%w: %s blocked forever", ErrStalled, e.liveNames())
	}
	e.runBatch(batch)
	return false, e.settle(batch)
}

// rekeyDirty recomputes the effective wake of every live machine whose
// stations got a delivery scheduled since the last barrier. The list's
// order follows host interleaving, but it only decides the order re-keys
// reach the heap, never the order the heap pops.
func (e *Engine) rekeyDirty() {
	e.dirtyMu.Lock()
	defer e.dirtyMu.Unlock()
	for _, m := range e.dirty {
		m.dirty = false
		if m.slot >= 0 {
			m.effWake = m.effectiveWake()
			e.queue.fix(m.slot)
		}
	}
	e.dirty = e.dirty[:0]
}

// nextBatch pops the next window's machines off the event queue, in
// (effective wake, machine sequence) order, and publishes the window's
// horizon. The batch is empty when no live machine has a wake.
func (e *Engine) nextBatch() []*Machine {
	e.batch = e.batch[:0]
	if len(e.queue) == 0 || e.queue[0].effWake == never {
		return e.batch
	}
	e.horizon = e.queue[0].effWake + ether.MinLatency
	if e.net != nil {
		e.net.SetHorizon(e.horizon)
	}
	for len(e.queue) > 0 && e.queue[0].effWake < e.horizon {
		e.batch = append(e.batch, e.queue.pop())
	}
	return e.batch
}

// settle returns a window's machines to the event queue under their new
// effective wakes and retires the finished ones. It returns the failed
// machine's error, lowest creation index first so the choice does not
// depend on which worker finished when.
func (e *Engine) settle(batch []*Machine) error {
	var failed *Machine
	for _, m := range batch {
		if m.done {
			e.retire(m)
			if m.err != nil && (failed == nil || m.idx < failed.idx) {
				failed = m
			}
			continue
		}
		m.effWake = m.effectiveWake()
		e.queue.push(m)
	}
	if failed != nil {
		return failed.err
	}
	return nil
}

// drain wakes every live daemon once, in creation order, with Draining set.
func (e *Engine) drain() error {
	if e.draining {
		return fmt.Errorf("fleet: daemons %s did not exit on drain", e.liveNames())
	}
	e.draining = true
	e.horizon = never
	for _, m := range e.machines {
		if m.done {
			continue
		}
		e.stepAt(m, m.clock.Now())
		if m.done {
			e.queue.remove(m.slot)
			e.retire(m)
			if m.err != nil {
				return m.err
			}
			continue
		}
		m.effWake = m.effectiveWake()
		e.queue.fix(m.slot)
	}
	return nil
}

// retire drops a finished machine from the live counts.
func (e *Engine) retire(m *Machine) {
	e.live--
	if !m.daemon {
		e.users--
	}
}

// runBatch executes one window's machines. With one worker they run
// serially in event order; with more, the pool's helpers and the calling
// goroutine claim machines off the engine's atomic cursor — the same
// slot-addressed pattern the crash explorer uses — and the window barrier
// is the pool's WaitGroup. A window starts no goroutine and allocates
// nothing.
func (e *Engine) runBatch(batch []*Machine) {
	n := e.workers
	if n > len(batch) {
		n = len(batch)
	}
	if n <= 1 {
		for _, m := range batch {
			e.stepAt(m, m.effWake)
		}
		return
	}
	e.cursor.Store(0)
	e.barrier.Add(n - 1)
	for w := 1; w < n; w++ {
		e.work <- batch
	}
	e.claim(batch)
	e.barrier.Wait()
	if e.panicked != nil {
		panic(e.panicValue)
	}
}

// help is one pool helper: it claims slots of every batch it is handed
// until Run closes the work channel.
func (e *Engine) help() {
	defer e.exited.Done()
	for batch := range e.work {
		e.claim(batch)
		e.barrier.Done()
	}
}

// claim runs batch machines off the cursor until none is left. A program
// that panics is recorded, lowest creation index first so the value Run
// raises does not depend on which worker ran what, and ends this worker's
// claiming; the others finish the window.
func (e *Engine) claim(batch []*Machine) {
	var m *Machine
	defer func() {
		if r := recover(); r != nil {
			e.panicMu.Lock()
			if e.panicked == nil || m.idx < e.panicked.idx {
				e.panicked, e.panicValue = m, r
			}
			e.panicMu.Unlock()
		}
	}()
	for {
		i := int(e.cursor.Add(1) - 1)
		if i >= len(batch) {
			return
		}
		m = batch[i]
		e.stepAt(m, m.effWake)
	}
}

// stepAt resumes one parked machine at the given wake time and returns when
// it parks again (or its program returns): it hands the machine the window
// horizon and the drain flag, moves its clock to the wake, and switches into
// its coroutine. The machine runs on the calling goroutine's thread.
func (e *Engine) stepAt(m *Machine, wake time.Duration) {
	e.steps.Add(1)
	m.horizon, m.draining = e.horizon, e.draining
	if wake < never {
		m.clock.AdvanceTo(wake)
	}
	m.next()
}

// Steps returns the number of machine activations the engine has performed.
// The count is a pure function of the schedule, so it is identical across
// runs and worker counts — the deterministic numerator for events/second.
func (e *Engine) Steps() int64 { return e.steps.Load() }

// liveNames lists the unfinished machines for error messages.
func (e *Engine) liveNames() string {
	var names []string
	for _, m := range e.machines {
		if !m.done {
			names = append(names, m.name)
		}
	}
	return strings.Join(names, ", ")
}
