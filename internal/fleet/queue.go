package fleet

// wakeQueue is the windowed engine's event queue: a binary min-heap of the
// live machines ordered by (effWake, idx). Every machine records its slot,
// so re-keying one machine is a fix rather than a re-sort.
//
// The order is total — no two machines share an idx — so the sequence the
// heap pops is a pure function of the keys. The heap's internal layout may
// differ with the order re-keys arrive in (which follows host interleaving),
// but nothing outside this file can observe the layout.
type wakeQueue []*Machine

func (q wakeQueue) less(i, j int) bool {
	a, b := q[i], q[j]
	if a.effWake != b.effWake {
		return a.effWake < b.effWake
	}
	return a.idx < b.idx
}

func (q wakeQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].slot = i
	q[j].slot = j
}

func (q wakeQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (q wakeQueue) down(i int) bool {
	start, n := i, len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > start
}

// push adds m under its current effWake.
func (q *wakeQueue) push(m *Machine) {
	m.slot = len(*q)
	*q = append(*q, m)
	q.up(m.slot)
}

// pop removes and returns the machine with the least (effWake, idx).
func (q *wakeQueue) pop() *Machine {
	return q.remove(0)
}

// fix restores the order after the machine in slot i changed its effWake.
func (q wakeQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

// remove takes the machine in slot i off the queue; its slot becomes -1.
func (q *wakeQueue) remove(i int) *Machine {
	h := *q
	n := len(h) - 1
	if i != n {
		h.swap(i, n)
	}
	m := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i != n {
		h.fix(i)
	}
	m.slot = -1
	return m
}
