package main

// Host-time tracing. A traced pass gives every machine its own span buffer:
// only the machine's own goroutine appends to it, so no lock is taken across
// machines and nothing is written out while the workload runs. Spans are
// recorded here, in the benchmark's own code, around each call into a layer;
// the program's simulated-time counters are read separately, from its trace
// recorders. Every value in this file is host wall time and none of it ever
// reaches a simulation API.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"altoos/internal/fleet"
)

// Span names: one per layer call the workloads make, plus the activation.
const (
	spActivation  = "fleet.activation"
	spClientPoll  = "fileserver.client_poll"
	spServerPoll  = "fileserver.server_poll"
	spFileCreate  = "file.create"
	spWritePages  = "file.write_pages"
	spReadPages   = "file.read_pages"
	spDirInsert   = "dir.insert"
	spDirLookup   = "dir.lookup"
	spStreamWrite = "stream.write_file"
	spScavenge    = "scavenge.run"
	spCompact     = "scavenge.compact"
	spFsck        = "fsck.check"
	spClusterStor = "cluster.store"
	spClusterFet  = "cluster.fetch"
	spAuditRound  = "cluster.audit_round"
)

// parkThreshold separates a Sync that parked from one that returned at
// once. A Sync that does not park costs a clock read and a compare, tens of
// nanoseconds; one that parks waits for at least two goroutine handoffs and
// a scheduling pass. Counted this way, activations match the engine's step
// count to within 0.01% on every workload.
const parkThreshold = 300 * time.Nanosecond

// span is one timed call into a layer, or one fleet activation.
type span struct {
	name   string
	start  int64 // host ns since the tracer's epoch
	end    int64
	parked int64 // host ns the machine spent parked inside the span
	parent int32 // enclosing call span, -1 at top level
	act    int32 // activation the span began in, -1 outside the fleet
	op     int32 // op ID, -1 outside any op
	worked bool  // polls only: whether the call did any work
}

// host is the span's host time with the time spent parked taken out.
func (s *span) host() int64 { return s.end - s.start - s.parked }

// mtrace is one machine's span buffer. A nil *mtrace is the untraced case:
// every method is then a no-op, or a plain pass-through to the fleet.
type mtrace struct {
	epoch  time.Time
	spans  []span
	open   []int32
	act    int32 // current activation, -1 while parked or outside the fleet
	parked int64 // cumulative host ns parked
	op     int32
}

func newMtrace(epoch time.Time) *mtrace {
	return &mtrace{epoch: epoch, act: -1, op: -1}
}

func (t *mtrace) now() int64 { return int64(time.Since(t.epoch)) }

// setOp tags every span that begins from now on with op ID id (-1: none).
func (t *mtrace) setOp(id int) {
	if t != nil {
		t.op = int32(id)
	}
}

// begin opens a call span and returns its index.
func (t *mtrace) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parked: t.parked, parent: parent, act: t.act, op: t.op})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

// end closes the innermost call span, which must be i.
func (t *mtrace) end(i int32) { t.endWorked(i, false) }

// endWorked closes a poll span, recording whether the poll did work.
func (t *mtrace) endWorked(i int32, worked bool) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	s.parked = t.parked - s.parked
	s.worked = worked
	t.open = t.open[:len(t.open)-1]
}

// startActivation opens an activation span at host time at.
func (t *mtrace) startActivation(at int64) {
	t.spans = append(t.spans, span{name: spActivation, start: at, parent: -1, act: -1, op: t.op})
	t.act = int32(len(t.spans) - 1)
}

// endActivation closes the current activation at host time at.
func (t *mtrace) endActivation(at int64) {
	if t.act >= 0 {
		t.spans[t.act].end = at
		t.act = -1
	}
}

// program wraps a fleet program so its first resume and its return bound
// activations.
func (t *mtrace) program(p func(*fleet.Machine) error) func(*fleet.Machine) error {
	if t == nil {
		return p
	}
	return func(m *fleet.Machine) error {
		t.startActivation(t.now())
		err := p(m)
		t.endActivation(t.now())
		return err
	}
}

// sync is m.Sync with the activation boundary recorded when it parks.
func (t *mtrace) sync(m *fleet.Machine) {
	if t == nil {
		m.Sync()
		return
	}
	a := t.now()
	m.Sync()
	if b := t.now(); b-a >= int64(parkThreshold) {
		t.parkedBetween(a, b)
	}
}

// idle is m.Idle, which always parks.
func (t *mtrace) idle(m *fleet.Machine) {
	if t == nil {
		m.Idle()
		return
	}
	a := t.now()
	m.Idle()
	t.parkedBetween(a, t.now())
}

func (t *mtrace) parkedBetween(a, b int64) {
	t.endActivation(a)
	t.parked += b - a
	t.startActivation(b)
}

// spanStats aggregates the call spans of one name across machines.
type spanStats struct {
	host   []int64 // host ns per call, parked time excluded
	worked int
}

// collect folds every machine's spans into per-name statistics.
func collect(traces []*mtrace) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, t := range traces {
		for i := range t.spans {
			s := &t.spans[i]
			if s.end == 0 {
				continue // left open by an aborted program
			}
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			st.host = append(st.host, s.host())
			if s.worked {
				st.worked++
			}
		}
	}
	return out
}

// selfTimes returns each span's self time: its host time minus the host time
// of the call spans directly inside it.
func selfTimes(t *mtrace) []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].host()
	}
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			self[p] -= t.spans[i].host()
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes one machine per process: activations on thread 1, layer
// calls on thread 2, each call carrying its op ID, self time and the index of
// the activation it began in.
func writeChrome(path string, names []string, traces []*mtrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		f.Close()
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	for m, t := range traces {
		pid := m + 1
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": names[m]}}); err != nil {
			f.Close()
			return err
		}
		self := selfTimes(t)
		for i := range t.spans {
			s := &t.spans[i]
			tid, args := 2, map[string]any{"op": s.op, "self_ns": self[i], "parked_ns": s.parked, "activation": s.act}
			if s.name == spActivation {
				tid, args = 1, map[string]any{"op": s.op}
			}
			ev := chromeEvent{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: pid, Tid: tid, Args: args}
			if err := emit(ev); err != nil {
				f.Close()
				return err
			}
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
