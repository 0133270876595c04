package trace

import "sync"

// CounterID is an interned counter name: an index into every recorder's
// counter table. NewCounter hands them out, usually once per name in a
// package-level var, so a bump indexes a slice instead of hashing a string.
type CounterID uint32

// HistID is an interned histogram name (NewHist).
type HistID uint32

// registry interns counter and histogram names for the whole process. IDs
// follow interning order, which is Go's deterministic package
// initialization order; nothing exported depends on them, since Snapshot
// sorts by name. The lock guards interning and name lookups only — never a
// bump.
var registry struct {
	mu              sync.Mutex
	counters, hists nameTable
}

// nameTable maps names to dense IDs and back. Names are only appended, so a
// copy of the names slice taken under the lock stays valid without it.
type nameTable struct {
	names []string
	ids   map[string]uint32
}

func (t *nameTable) intern(name string) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[string]uint32{}
	}
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// NewCounter interns a counter name and returns its handle. Interning the
// same name again returns the same handle, so two packages bumping one
// counter share it.
func NewCounter(name string) CounterID {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return CounterID(registry.counters.intern(name))
}

// NewHist interns a histogram name and returns its handle. Histogram names
// are their own namespace: a counter and a histogram may share a name.
func NewHist(name string) HistID {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return HistID(registry.hists.intern(name))
}

// internedNames returns the counter and histogram names interned so far,
// each indexed by its ID.
func internedNames() (counters, hists []string) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.counters.names, registry.hists.names
}

// counterID looks up an interned counter by name.
func counterID(name string) (CounterID, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	id, ok := registry.counters.ids[name]
	return CounterID(id), ok
}
