package fleet

// wakeQueue is the windowed engine's event queue: a container/heap of the
// live machines ordered by (effWake, idx). Every machine records its slot,
// so re-keying one machine is a heap.Fix rather than a re-sort.
//
// The order is total — no two machines share an idx — so the sequence the
// heap pops is a pure function of the keys. The heap's internal layout may
// differ with the order re-keys arrive in (which follows host interleaving),
// but nothing outside this file can observe the layout.
type wakeQueue []*Machine

func (q wakeQueue) Len() int { return len(q) }

func (q wakeQueue) Less(i, j int) bool {
	if q[i].effWake != q[j].effWake {
		return q[i].effWake < q[j].effWake
	}
	return q[i].idx < q[j].idx
}

func (q wakeQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].slot = i
	q[j].slot = j
}

func (q *wakeQueue) Push(x any) {
	m := x.(*Machine)
	m.slot = len(*q)
	*q = append(*q, m)
}

func (q *wakeQueue) Pop() any {
	h := *q
	m := h[len(h)-1]
	h[len(h)-1] = nil
	*q = h[:len(h)-1]
	m.slot = -1
	return m
}
