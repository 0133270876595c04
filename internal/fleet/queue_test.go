package fleet

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"altoos/internal/sim"
)

// wakeOracle is the queue the heap must agree with: the queued machines
// kept sorted by (effWake, idx) after every change.
type wakeOracle []*Machine

func (o wakeOracle) sort() {
	slices.SortFunc(o, func(a, b *Machine) int {
		if c := cmp.Compare(a.effWake, b.effWake); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

func (o *wakeOracle) drop(m *Machine) {
	*o = slices.DeleteFunc(*o, func(x *Machine) bool { return x == m })
}

// TestWakeQueueMatchesSortedSlice runs seeded sequences of push, pop, fix
// and remove over machines whose wakes collide often, against a sorted
// slice. Every pop must return the slice's first machine, and after every
// step no machine may sort before its heap parent, each queued machine's
// slot must be its index, and every other machine's slot must be -1.
func TestWakeQueueMatchesSortedSlice(t *testing.T) {
	pops := 0
	for seed := uint64(1); seed <= 60; seed++ {
		rnd := sim.NewRand(seed)
		ms := make([]*Machine, 1+rnd.Intn(40))
		for i := range ms {
			ms[i] = &Machine{name: fmt.Sprint("m", i), idx: i, slot: -1}
		}
		wake := func() time.Duration {
			if rnd.Bool(1, 10) {
				return never
			}
			return time.Duration(rnd.Intn(6))
		}
		var q wakeQueue
		var o wakeOracle
		for step := 0; step < 500; step++ {
			m := ms[rnd.Intn(len(ms))]
			op := ""
			switch rnd.Intn(4) {
			case 0:
				op = "push"
				if m.slot >= 0 {
					break
				}
				m.effWake = wake()
				q.push(m)
				o = append(o, m)
			case 1:
				op = "pop"
				if len(q) == 0 {
					break
				}
				got := q.pop()
				pops++
				if got != o[0] {
					t.Fatalf("seed %d step %d: pop = %s@%v, oracle %s@%v", seed, step, got.name, got.effWake, o[0].name, o[0].effWake)
				}
				o = o[1:]
			case 2:
				op = "fix"
				if m.slot < 0 {
					break
				}
				m.effWake = wake()
				q.fix(m.slot)
			case 3:
				op = "remove"
				if m.slot < 0 {
					break
				}
				if got := q.remove(m.slot); got != m {
					t.Fatalf("seed %d step %d: remove(%s) returned %s", seed, step, m.name, got.name)
				}
				o.drop(m)
			}
			o.sort()
			if len(q) != len(o) {
				t.Fatalf("seed %d step %d (%s): queue holds %d machines, oracle %d", seed, step, op, len(q), len(o))
			}
			if len(q) > 0 && q[0] != o[0] {
				t.Fatalf("seed %d step %d (%s): root %s@%v, oracle first %s@%v", seed, step, op, q[0].name, q[0].effWake, o[0].name, o[0].effWake)
			}
			for i, x := range q {
				if x.slot != i {
					t.Fatalf("seed %d step %d (%s): %s in slot %d records slot %d", seed, step, op, x.name, i, x.slot)
				}
				if i > 0 && q.less(i, (i-1)/2) {
					t.Fatalf("seed %d step %d (%s): %s in slot %d sorts before its parent", seed, step, op, x.name, i)
				}
			}
			for _, x := range ms {
				if !slices.Contains(o, x) && x.slot != -1 {
					t.Fatalf("seed %d step %d (%s): %s is off the queue but records slot %d", seed, step, op, x.name, x.slot)
				}
			}
		}
	}
	if pops == 0 {
		t.Fatal("no step ever popped")
	}
}

// churnQueue fills a wake queue with n machines and returns a function
// that does one round of the engine's queue traffic: pop the earliest
// machine and push it back later, and re-key another in place.
func churnQueue(n int) func() {
	q := make(wakeQueue, 0, n)
	ms := make([]*Machine, n)
	for i := range ms {
		ms[i] = &Machine{idx: i, effWake: time.Duration(i % 7)}
		q.push(ms[i])
	}
	k := 0
	return func() {
		m := q.pop()
		m.effWake += time.Duration(1 + k%5)
		q.push(m)
		other := ms[k%n]
		other.effWake += time.Duration(k % 3)
		q.fix(other.slot)
		k++
	}
}

// TestWakeQueueAllocatesNothing pins the queue's steady-state cost: push,
// pop and fix move pointers within the array and box nothing.
func TestWakeQueueAllocatesNothing(t *testing.T) {
	round := churnQueue(100)
	if a := testing.AllocsPerRun(1000, round); a != 0 {
		t.Errorf("a pop, push and fix allocate %v times, want 0", a)
	}
}

// BenchmarkWakeQueue is one round of queue traffic on a 100-machine fleet:
// a pop, a push and a fix.
func BenchmarkWakeQueue(b *testing.B) {
	round := churnQueue(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
