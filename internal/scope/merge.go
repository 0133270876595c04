package scope

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"altoos/internal/trace"
)

// Merged is N machines' recordings folded onto the shared sim-time axis.
// Build one with Merge; it is immutable afterwards.
type Merged struct {
	machines []machineData
	events   []mergedEvent
}

// machineData is one machine's share of the merge, post-snapshot.
type machineData struct {
	name    string
	events  []trace.Event
	dropped int64
	profile *MachineProfile
}

// mergedEvent is one event on the global timeline: the machine index (into
// the name-sorted machine list) and the ring position break simulated-time
// ties, giving a total order no merge-input order can perturb.
type mergedEvent struct {
	ev      trace.Event
	machine int
	ring    int
}

// Merge snapshots every machine's recorder and builds the global timeline.
// The per-machine work (event snapshot, profile fold) fans out over workers;
// results land at each machine's slot, so the output is identical across
// worker counts. Machine names must be distinct (Fleet guarantees it).
func Merge(ms []MachineTrace, workers int) *Merged {
	m := &Merged{machines: make([]machineData, len(ms))}
	for i := range ms {
		m.machines[i] = machineData{name: ms[i].Name}
	}
	sort.Slice(m.machines, func(i, j int) bool { return m.machines[i].name < m.machines[j].name })
	recs := make([]*trace.Recorder, len(m.machines))
	for i := range m.machines {
		for j := range ms {
			if ms[j].Name == m.machines[i].name {
				recs[i] = ms[j].Rec
			}
		}
	}

	if workers < 1 {
		workers = 1
	}
	if workers > len(m.machines) {
		workers = len(m.machines)
	}
	// The pool pulls machine indices from an atomic cursor; each result
	// lands at its machine's slot (the crashpoint explorer's shape), so the
	// fold order cannot leak into the output.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(m.machines) {
					return
				}
				md := &m.machines[i]
				md.events = recs[i].Events()
				md.dropped = recs[i].Snapshot().Dropped
				md.profile = foldProfile(md.name, md.events)
			}
		}()
	}
	wg.Wait()

	total := 0
	for i := range m.machines {
		total += len(m.machines[i].events)
	}
	m.events = make([]mergedEvent, 0, total)
	for i := range m.machines {
		for j, ev := range m.machines[i].events {
			m.events = append(m.events, mergedEvent{ev: ev, machine: i, ring: j})
		}
	}
	sort.Slice(m.events, func(a, b int) bool {
		x, y := &m.events[a], &m.events[b]
		if x.ev.T != y.ev.T {
			return x.ev.T < y.ev.T
		}
		if x.machine != y.machine {
			return x.machine < y.machine
		}
		return x.ring < y.ring
	})
	return m
}

// MachineProfiles returns the per-machine profiles, machines in name order.
func (m *Merged) MachineProfiles() []*MachineProfile {
	out := make([]*MachineProfile, len(m.machines))
	for i := range m.machines {
		out[i] = m.machines[i].profile
	}
	return out
}

// chromeEvent is one merged trace_event entry. Field order fixes the JSON
// shape; Args is a map, which encoding/json marshals with sorted keys.
type chromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat"`
	Ph    string           `json:"ph"`
	Ts    float64          `json:"ts"`
	Dur   *float64         `json:"dur,omitempty"`
	Pid   int              `json:"pid"`
	Tid   int              `json:"tid"`
	ID    *int64           `json:"id,omitempty"`
	Scope string           `json:"s,omitempty"`
	BP    string           `json:"bp,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// lanes are the category lanes each machine's process shows, in display
// order; a category's thread id is its 1-based position here, and unknown
// categories share the lane after the named ones.
var lanes = []string{"disk", "scavenge", "zone", "stream", "swap", "ether", "fileserver", "crashpoint"}

// lane returns the thread id category cat renders on.
func lane(cat string) int {
	if i := slices.Index(lanes, cat); i >= 0 {
		return i + 1
	}
	return len(lanes) + 1
}

// usec converts simulated time to trace_event microseconds.
func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// WriteChrome writes the merged fleet trace: one process per machine (pid =
// 1 + its index in name order), the usual category lanes as threads within
// each process, and every flow with at least two events rendered as a chain
// of flow events (ph s/t/f sharing id = the flow) whose arrows cross machine
// boundaries in the viewer.
func (m *Merged) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	// Flow chains: first/last global index per flow, counting anchors. Only
	// flows touched by two or more events draw arrows; a flow seen once has
	// nothing to link. Keyed lookups only — iteration stays on the event
	// slice, never the maps.
	first := map[int64]int{}
	last := map[int64]int{}
	for i := range m.events {
		f := m.events[i].ev.Flow
		if f == 0 {
			continue
		}
		if _, ok := first[f]; !ok {
			first[f] = i
		}
		last[f] = i
	}

	// Everything funnels through one writer so the separator logic stays in
	// one place: a trailing entry gets "\n", every other ",\n".
	wrote := false
	flush := func(raw string) error {
		if wrote {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		wrote = true
		_, err := io.WriteString(bw, raw)
		return err
	}
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		return flush(string(b))
	}

	for i := range m.machines {
		// process_name and thread_name want a string arg, which
		// chromeEvent.Args cannot hold; write them by hand.
		if err := flush(fmt.Sprintf(`{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"name":%q}}`,
			i+1, m.machines[i].name)); err != nil {
			return err
		}
		for j, cat := range lanes {
			if err := flush(fmt.Sprintf(`{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":%q}}`,
				i+1, j+1, cat)); err != nil {
				return err
			}
		}
		if d := m.machines[i].dropped; d > 0 {
			if err := emit(chromeEvent{Name: "ring-evicted", Cat: "__metadata", Ph: "i", Pid: i + 1,
				Scope: "p", Args: map[string]int64{"dropped": d}}); err != nil {
				return err
			}
		}
	}

	for i := range m.events {
		me := &m.events[i]
		ev := me.ev
		a0n, a1n := ev.Kind.ArgNames()
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Kind.Category(),
			Ts:   usec(ev.T),
			Pid:  me.machine + 1,
			Tid:  lane(ev.Kind.Category()),
			Args: map[string]int64{a0n: ev.A0, a1n: ev.A1},
		}
		if ce.Name == "" {
			ce.Name = ev.Kind.String()
		}
		if ev.Flow != 0 {
			ce.Args["flow"] = ev.Flow
		}
		if ev.Dur > 0 {
			d := usec(ev.Dur)
			ce.Ph, ce.Dur = "X", &d
		} else {
			ce.Ph, ce.Scope = "i", "t"
		}
		if err := emit(ce); err != nil {
			return err
		}
		if f := ev.Flow; f != 0 && first[f] != last[f] {
			fe := chromeEvent{Name: "flow", Cat: "flow", Ts: ce.Ts, Pid: ce.Pid, Tid: ce.Tid, ID: &me.ev.Flow}
			switch i {
			case first[f]:
				fe.Ph = "s"
			case last[f]:
				fe.Ph, fe.BP = "f", "e"
			default:
				fe.Ph = "t"
			}
			if err := emit(fe); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
