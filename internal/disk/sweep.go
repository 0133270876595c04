package disk

// The label sweep and label table shared by the maintenance passes: the
// Scavenger, the compactor and fsck all start by "reading all the labels on
// the disk" (§3.5) into "a table with 48 bits per sector".

// SweepLabels reads every label on the pack. Each cylinder is one FreeOrder
// chain of header-checked label reads, so the drive makes one scheduling
// decision per cylinder and the labels stream by in rotation order. The
// chain may run out of address order, but visit sees every sector in
// ascending address order, with the label words read and the error the read
// returned, so a pass built on it acts exactly as a sector-at-a-time sweep
// would. An error from visit ends the sweep and is returned.
func SweepLabels(dev Device, visit func(addr VDA, raw [LabelWords]Word, err error) error) error {
	g := dev.Geometry()
	n := g.NSectors()
	batch := g.Heads * g.SectorsPerTrack
	ops := make([]Op, batch)
	hdrs := make([][HeaderWords]Word, batch)
	lbls := make([][LabelWords]Word, batch)
	slotErr := make([]error, batch)
	pack := dev.Pack()

	for base := 0; base < n; base += batch {
		m := min(batch, n-base)
		for i := 0; i < m; i++ {
			//altovet:allow wordwidth base+i < NSectors, which fits a VDA
			addr := VDA(base + i)
			hdrs[i] = Header{Pack: pack, Addr: addr}.Words()
			ops[i] = Op{
				Addr:       addr,
				Header:     Check,
				HeaderData: &hdrs[i],
				Label:      Read,
				LabelData:  &lbls[i],
			}
		}
		// The scheduler permutes ops in place, but sector base+i always
		// reads into lbls[i]; only the errors need putting back in place.
		errs := DoChainOn(dev, ops[:m], FreeOrder)
		clear(slotErr[:m])
		for k, err := range errs {
			slotErr[int(ops[k].Addr)-base] = err
		}
		for i := 0; i < m; i++ {
			//altovet:allow wordwidth base+i < NSectors, which fits a VDA
			if err := visit(VDA(base+i), lbls[i], slotErr[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// LabelTable is a maintenance pass's table of the in-use sectors: one entry
// per sector, added in address order during the sweep, in one slice sized
// from the sector count, so building it allocates nothing per sector.
type LabelTable struct {
	entries []LabelEntry
	fvs     []FV          // files in the order the sweep first met them
	index   map[FV]uint16 // position in fvs
}

// LabelEntry is one in-use sector: its address and the label it carries.
type LabelEntry struct {
	Label
	Addr VDA
	// slot is the entry's file index in the table while the sweep adds
	// entries, and its final position while Group permutes them. A pack
	// has at most 65535 sectors, so both fit in 16 bits.
	slot uint16
}

// FileGroup is one file's entries in a grouped LabelTable.
type FileGroup struct {
	FV    FV
	Pages []LabelEntry
}

// NewLabelTable returns an empty table with room for nsectors entries.
func NewLabelTable(nsectors int) *LabelTable {
	return &LabelTable{
		entries: make([]LabelEntry, 0, nsectors),
		index:   map[FV]uint16{},
	}
}

// Add appends the in-use sector addr carrying l. Sectors must be added in
// ascending address order.
func (t *LabelTable) Add(addr VDA, l Label) {
	fv := l.FV()
	f, ok := t.index[fv]
	if !ok {
		f = uint16(len(t.fvs))
		t.index[fv] = f
		t.fvs = append(t.fvs, fv)
	}
	t.entries = append(t.entries, LabelEntry{Label: l, Addr: addr, slot: f})
}

// Group makes each file's entries one contiguous run and returns the files
// in the order the sweep first met them, each run in ascending address
// order. It is a stable counting sort on the file index, applied in place.
// Each run is capped at its own end, so appending to one file's Pages
// copies it rather than overwrite the next file's entries. Call Group once,
// after the last Add.
func (t *LabelTable) Group() []FileGroup {
	at := make([]uint16, len(t.fvs))
	for i := range t.entries {
		at[t.entries[i].slot]++
	}
	sum := uint16(0)
	for f, n := range at {
		at[f], sum = sum, sum+n
	}
	// Hand each entry the next position of its file's run, in address
	// order; afterwards at[f] is the end of file f's run.
	for i := range t.entries {
		e := &t.entries[i]
		f := e.slot
		e.slot = at[f]
		at[f]++
	}
	// Apply the permutation: every swap puts one entry in its final place.
	for i := range t.entries {
		for j := t.entries[i].slot; int(j) != i; j = t.entries[i].slot {
			t.entries[i], t.entries[j] = t.entries[j], t.entries[i]
		}
	}
	groups := make([]FileGroup, len(t.fvs))
	lo := uint16(0)
	for f, hi := range at {
		groups[f] = FileGroup{FV: t.fvs[f], Pages: t.entries[lo:hi:hi]}
		lo = hi
	}
	return groups
}
