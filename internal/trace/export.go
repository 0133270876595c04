package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// The metrics snapshot (Snapshot + WriteText): counters and histograms,
// sorted by name, every number formatted the same way on every run, so
// identical workloads snapshot to identical bytes. The Chrome trace of a
// run's events is internal/scope's job.

// CounterSnap is one counter in a metrics snapshot.
type CounterSnap struct {
	Name  string
	Value int64
}

// BucketSnap is one non-empty histogram bucket: Count samples with
// value < Lt (and >= the previous bucket's bound).
type BucketSnap struct {
	Lt    float64
	Count int64
}

// HistSnap is one histogram in a metrics snapshot. P50/P90/P99 are derived
// from the log₂ buckets: each is the upper bound of the bucket where the
// cumulative count crosses the quantile, clamped to the observed [Min, Max]
// — a deterministic integer computation, so snapshots stay byte-identical.
type HistSnap struct {
	Name          string
	Count         int64
	Sum, Min, Max float64
	P50, P90, P99 float64
	Buckets       []BucketSnap
}

// Mean returns the histogram's average sample.
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// quantile returns the bucket-derived estimate for the q-th percentile
// (q in 0..100): the upper bound of the first bucket whose cumulative count
// reaches ceil(q% of Count), clamped to the observed extremes.
func (h HistSnap) quantile(q int64) float64 {
	if h.Count == 0 {
		return 0
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		// cum/Count >= q/100, in integers to keep the comparison exact.
		if cum*100 >= h.Count*q {
			v := b.Lt
			if v > h.Max {
				v = h.Max
			}
			if v < h.Min {
				v = h.Min
			}
			return v
		}
	}
	return h.Max
}

// Metrics is a point-in-time copy of the recorder's aggregates.
type Metrics struct {
	Events     int64
	Dropped    int64
	Counters   []CounterSnap
	Histograms []HistSnap
}

// Snapshot copies the counters and histograms, sorted by name. A nil
// recorder yields the zero Metrics.
func (r *Recorder) Snapshot() Metrics {
	var m Metrics
	if r == nil {
		return m
	}
	m.Events = r.emitted
	m.Dropped = r.dropped
	counterNames, histNames := internedNames()
	for c, cell := range r.counters {
		if cell.touched {
			m.Counters = append(m.Counters, CounterSnap{Name: counterNames[c], Value: cell.v})
		}
	}
	sort.Slice(m.Counters, func(i, j int) bool { return m.Counters[i].Name < m.Counters[j].Name })
	for id, h := range r.hists {
		if h == nil {
			continue
		}
		hs := HistSnap{Name: histNames[id], Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, c := range h.buckets {
			if c > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnap{Lt: float64(int64(1) << i), Count: c})
			}
		}
		hs.P50, hs.P90, hs.P99 = hs.quantile(50), hs.quantile(90), hs.quantile(99)
		m.Histograms = append(m.Histograms, hs)
	}
	sort.Slice(m.Histograms, func(i, j int) bool { return m.Histograms[i].Name < m.Histograms[j].Name })
	return m
}

// WriteText writes the snapshot as aligned name/value lines for terminals
// (and the Swat REPL's stats command).
func (m Metrics) WriteText(w io.Writer) error {
	width := len("events")
	for _, c := range m.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, h := range m.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s %d (%d dropped)\n", width, "events", m.Events, m.Dropped); err != nil {
		return err
	}
	for _, c := range m.Counters {
		if _, err := fmt.Fprintf(w, "%-*s %d\n", width, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, h := range m.Histograms {
		if _, err := fmt.Fprintf(w, "%-*s n=%d mean=%.2f min=%.2f max=%.2f p50=%.2f p90=%.2f p99=%.2f\n",
			width, h.Name, h.Count, h.Mean(), h.Min, h.Max, h.P50, h.P90, h.P99); err != nil {
			return err
		}
	}
	return nil
}

// Text renders the snapshot as a string.
func (m Metrics) Text() string {
	var b strings.Builder
	_ = m.WriteText(&b)
	return b.String()
}
