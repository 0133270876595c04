// Package fsck is the machine-checkable statement of the file system's
// invariants. The paper asserts them in prose — labels are the truth, hints
// are reconstructible, the Scavenger restores consistency after "a system
// crash at an arbitrary point" (§3.5) — and the crash explorer
// (internal/crashpoint) turns that prose into a verified property by running
// this checker after every injected crash and repair.
//
// Check walks the whole pack and verifies, from the labels up:
//
//   - chains: every file's pages number 0..N contiguously, every page but
//     the last is full, the last is partial, and the doubly-linked
//     next/previous hints close over the chain with NilVDA at both ends;
//   - ownership: no two sectors claim the same (file, page) name, and no
//     in-use sector is outside every chain;
//   - leaders: page 0 decodes, carries a name, and its last-page hints
//     agree with the chain on disk;
//   - bitmap: the descriptor's allocation map marks exactly the in-use,
//     retired and unreadable sectors busy (the boot sector stays reserved);
//   - serial: the descriptor's next-serial lies above every issued serial;
//   - directories: every directory file parses, every entry resolves to a
//     live file with a correct leader hint, and — excepting the system
//     files — every file is reachable by some name.
//
// The checker only reads: it never repairs, so running it twice is running
// it once. Violations are reported in deterministic order (files sorted by
// identifier, pages by number), which the crash explorer's byte-identical
// merge depends on.
package fsck

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/file"
)

// Rule names group violations by the invariant they break.
const (
	RuleChain  = "chain"  // page chain contiguous, closed, last page partial
	RuleOwner  = "owner"  // no doubly-owned (file, page) names
	RuleLeader = "leader" // leader page decodes and its hints agree
	RuleBitmap = "bitmap" // allocation map matches the labels
	RuleSerial = "serial" // next-serial above every issued serial
	RuleDir    = "dir"    // directory entries resolve
	RuleOrphan = "orphan" // every user file reachable by name
	RuleDesc   = "desc"   // descriptor and root directory usable
)

// Violation is one broken invariant, anchored to the sector and file it was
// found at (Addr may be NilVDA and FV zero when the finding is global).
type Violation struct {
	Rule string
	Addr disk.VDA
	FV   disk.FV
	Msg  string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Addr == disk.NilVDA {
		return fmt.Sprintf("%s: %v: %s", v.Rule, v.FV, v.Msg)
	}
	return fmt.Sprintf("%s: %v @%d: %s", v.Rule, v.FV, v.Addr, v.Msg)
}

// Report is the outcome of one check.
type Report struct {
	SectorsScanned int
	FilesChecked   int
	Directories    int
	DirEntries     int
	FreePages      int
	RetiredPages   int
	BadSectors     int
	Violations     []Violation
}

// OK reports a fully consistent pack.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Strings renders the violations for reports and JSON output.
func (r *Report) Strings() []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.String()
	}
	return out
}

// page is one in-use sector as the sweep found it.
type page struct {
	addr disk.VDA
	lbl  disk.Label
}

// fileRec collects every sector claiming one (file, version) name.
type fileRec struct {
	fv    disk.FV
	pages []page
}

// checker carries one check's state.
type checker struct {
	dev    disk.Device
	report *Report
	files  []*fileRec
	// byFV is a keyed index into files only — every walk uses the sorted
	// slice, never map iteration, so two checks of the same pack report
	// identically.
	byFV map[disk.FV]int
	// busy mirrors what the allocation map must say: in-use, retired and
	// unreadable sectors.
	busy []bool
}

// Check verifies every invariant on the pack behind dev. The returned error
// reports only infrastructure failure (an I/O error the sweep cannot
// classify); everything wrong with the pack itself lands in the report.
func Check(dev disk.Device) (*Report, error) {
	c := &checker{
		dev:    dev,
		report: &Report{},
		byFV:   make(map[disk.FV]int),
		busy:   make([]bool, dev.Geometry().NSectors()),
	}
	if err := c.sweep(); err != nil {
		return nil, err
	}
	slices.SortFunc(c.files, func(a, b *fileRec) int {
		return cmp.Or(cmp.Compare(a.fv.FID, b.fv.FID), cmp.Compare(a.fv.Version, b.fv.Version))
	})
	// The sort moved the records; rebuild the keyed index over the new
	// positions before anything resolves an FV.
	for i, f := range c.files {
		c.byFV[f.fv] = i
	}
	for _, f := range c.files {
		c.checkFile(f)
	}
	c.checkSystem()
	return c.report, nil
}

// violate records one finding.
func (c *checker) violate(rule string, addr disk.VDA, fv disk.FV, format string, args ...any) {
	c.report.Violations = append(c.report.Violations, Violation{
		Rule: rule, Addr: addr, FV: fv, Msg: fmt.Sprintf(format, args...),
	})
}

// sweep reads every label, one cylinder of header-checked label reads per
// free-order chain (the Scavenger's pass-1 shape), and groups the in-use
// pages by file. Entries are processed in ascending address order whatever
// order the scheduler served them in.
func (c *checker) sweep() error {
	g := c.dev.Geometry()
	n := g.NSectors()
	c.report.SectorsScanned = n

	batch := g.Heads * g.SectorsPerTrack
	ops := make([]disk.Op, batch)
	hdrs := make([][disk.HeaderWords]disk.Word, batch)
	lbls := make([][disk.LabelWords]disk.Word, batch)
	slotErr := make([]error, batch)
	slotLbl := make([]*[disk.LabelWords]disk.Word, batch)
	pack := c.dev.Pack()

	for base := 0; base < n; base += batch {
		m := batch
		if base+m > n {
			m = n - base
		}
		for i := 0; i < m; i++ {
			//altovet:allow wordwidth base+i < NSectors, which fits a VDA
			addr := disk.VDA(base + i)
			hdrs[i] = disk.Header{Pack: pack, Addr: addr}.Words()
			ops[i] = disk.Op{
				Addr:       addr,
				Header:     disk.Check,
				HeaderData: &hdrs[i],
				Label:      disk.Read,
				LabelData:  &lbls[i],
			}
		}
		errs := disk.DoChainOn(c.dev, ops[:m], disk.FreeOrder)
		for k := 0; k < m; k++ {
			idx := int(ops[k].Addr) - base
			slotLbl[idx] = ops[k].LabelData
			if errs != nil {
				slotErr[idx] = errs[k]
			} else {
				slotErr[idx] = nil
			}
		}
		for i := 0; i < m; i++ {
			//altovet:allow wordwidth base+i < NSectors, which fits a VDA
			addr := disk.VDA(base + i)
			raw, err := *slotLbl[i], slotErr[i]
			switch {
			case errors.Is(err, disk.ErrBadSector) || disk.IsCheck(err):
				c.report.BadSectors++
				c.busy[addr] = true
				continue
			case err != nil:
				return fmt.Errorf("fsck: sweeping sector %d: %w", addr, err)
			}
			switch {
			case disk.IsFreeLabel(raw):
				c.report.FreePages++
			case disk.IsBadLabel(raw):
				c.report.RetiredPages++
				c.busy[addr] = true
			default:
				c.busy[addr] = true
				lbl := disk.LabelFromWords(raw)
				fv := lbl.FV()
				idx, ok := c.byFV[fv]
				if !ok {
					idx = len(c.files)
					c.files = append(c.files, &fileRec{fv: fv})
					c.byFV[fv] = idx
				}
				c.files[idx].pages = append(c.files[idx].pages, page{addr: addr, lbl: lbl})
			}
		}
	}
	return nil
}

// leaderAddr returns the file's page-0 address, or NilVDA if it has none.
// pages are sorted by (pn, addr) by the time anyone asks.
func (f *fileRec) leaderAddr() disk.VDA {
	if len(f.pages) > 0 && f.pages[0].lbl.PageNum == 0 {
		return f.pages[0].addr
	}
	return disk.NilVDA
}

// checkFile verifies one file's chain, lengths, links and leader.
func (c *checker) checkFile(f *fileRec) {
	c.report.FilesChecked++
	slices.SortFunc(f.pages, func(a, b page) int {
		return cmp.Or(cmp.Compare(a.lbl.PageNum, b.lbl.PageNum), cmp.Compare(a.addr, b.addr))
	})

	// Ownership: a (file, page) name must name one sector.
	clean := true
	for i := 1; i < len(f.pages); i++ {
		if f.pages[i].lbl.PageNum == f.pages[i-1].lbl.PageNum {
			c.violate(RuleOwner, f.pages[i].addr, f.fv,
				"page %d doubly owned (also at sector %d)", f.pages[i].lbl.PageNum, f.pages[i-1].addr)
			clean = false
		}
	}

	// Contiguity: pages number 0..N with no gaps.
	if f.pages[0].lbl.PageNum != 0 {
		c.violate(RuleChain, f.pages[0].addr, f.fv,
			"no leader page; chain starts at page %d", f.pages[0].lbl.PageNum)
		clean = false
	}
	for i := 1; i < len(f.pages); i++ {
		prev, cur := f.pages[i-1].lbl.PageNum, f.pages[i].lbl.PageNum
		if cur != prev && cur != prev+1 {
			c.violate(RuleChain, f.pages[i].addr, f.fv,
				"gap in chain: page %d follows page %d", cur, prev)
			clean = false
		}
	}

	// Lengths: every page but the last full, the last partial — the
	// invariant the storage layer maintains from a file's birth.
	last := len(f.pages) - 1
	for i, p := range f.pages {
		if i < last && p.lbl.Length != disk.PageBytes {
			c.violate(RuleChain, p.addr, f.fv,
				"short interior page %d: %d bytes", p.lbl.PageNum, p.lbl.Length)
			clean = false
		}
	}
	if f.pages[last].lbl.Length >= disk.PageBytes && last == 0 {
		c.violate(RuleChain, f.pages[last].addr, f.fv,
			"file is a bare full leader: missing partial tail page")
		clean = false
	} else if f.pages[last].lbl.Length >= disk.PageBytes {
		c.violate(RuleChain, f.pages[last].addr, f.fv,
			"last page %d is full: missing partial tail", f.pages[last].lbl.PageNum)
		clean = false
	}

	// Links: the doubly-linked chain closes over the sorted pages, NilVDA
	// at both ends. Only meaningful when the chain itself is sound.
	if clean {
		for i, p := range f.pages {
			wantPrev, wantNext := disk.NilVDA, disk.NilVDA
			if i > 0 {
				wantPrev = f.pages[i-1].addr
			}
			if i < last {
				wantNext = f.pages[i+1].addr
			}
			if p.lbl.Next != wantNext {
				c.violate(RuleChain, p.addr, f.fv,
					"page %d next link %d, chain says %d", p.lbl.PageNum, p.lbl.Next, wantNext)
			}
			if p.lbl.Prev != wantPrev {
				c.violate(RuleChain, p.addr, f.fv,
					"page %d prev link %d, chain says %d", p.lbl.PageNum, p.lbl.Prev, wantPrev)
			}
		}
	}

	// Leader: page 0 must decode and agree with the chain. The descriptor
	// file's page 0 holds the descriptor, not a leader, so it is exempt.
	if clean && f.fv.FID != disk.DescriptorFID {
		c.checkLeader(f)
	}
}

// checkLeader reads and decodes page 0 and compares its hints to the chain.
func (c *checker) checkLeader(f *fileRec) {
	lp := f.pages[0]
	var v [disk.PageWords]disk.Word
	if err := disk.ReadValue(c.dev, lp.addr, lp.lbl, &v); err != nil {
		c.violate(RuleLeader, lp.addr, f.fv, "leader unreadable: %v", err)
		return
	}
	ldr, err := file.DecodeLeader(&v)
	if err != nil {
		c.violate(RuleLeader, lp.addr, f.fv, "leader does not decode: %v", err)
		return
	}
	if ldr.Name == "" {
		c.violate(RuleLeader, lp.addr, f.fv, "leader carries no name")
	}
	tail := f.pages[len(f.pages)-1]
	if ldr.LastPN != tail.lbl.PageNum || ldr.LastAddr != tail.addr {
		c.violate(RuleLeader, lp.addr, f.fv,
			"stale last-page hint: leader says (%d, %d), chain ends at (%d, %d)",
			ldr.LastPN, ldr.LastAddr, tail.lbl.PageNum, tail.addr)
	}
}

// checkSystem mounts the descriptor and verifies the pack-wide invariants:
// allocation map, serial counter, root directory, entry resolution,
// reachability.
func (c *checker) checkSystem() {
	fs, err := file.Mount(c.dev)
	if err != nil {
		c.violate(RuleDesc, disk.NilVDA, disk.FV{}, "pack does not mount: %v", err)
		return
	}
	desc := fs.Descriptor()

	// Allocation map: busy exactly where the labels say, plus the reserved
	// boot sector.
	if desc.Free.Len() != len(c.busy) {
		c.violate(RuleBitmap, disk.NilVDA, disk.FV{},
			"allocation map covers %d sectors, disk has %d", desc.Free.Len(), len(c.busy))
	} else {
		for a := range c.busy {
			addr := disk.VDA(a)
			switch {
			case c.busy[a] && !desc.Free.Busy(addr):
				c.violate(RuleBitmap, addr, disk.FV{}, "in-use sector marked free in the allocation map")
			case !c.busy[a] && desc.Free.Busy(addr) && addr != file.BootVDA:
				c.violate(RuleBitmap, addr, disk.FV{}, "free sector marked busy in the allocation map")
			}
		}
	}

	// Serial: the next serial to issue must lie above every serial on disk
	// (directory files carry theirs under the directory bit).
	maxSerial := uint32(0)
	for _, f := range c.files {
		if s := uint32(f.fv.FID &^ disk.DirFIDBit); s >= uint32(disk.FirstUserFID) && s > maxSerial {
			maxSerial = s
		}
	}
	if maxSerial != 0 && desc.NextSerial <= maxSerial {
		c.violate(RuleSerial, disk.NilVDA, disk.FV{},
			"next serial %d already issued (max on disk %d)", desc.NextSerial, maxSerial)
	}

	// Root: the descriptor's root-directory name must point at a directory
	// that actually exists.
	root := fs.RootDir()
	rootIdx, rootOK := c.byFV[root.FV]
	if !rootOK || !root.FV.FID.IsDirectory() {
		c.violate(RuleDesc, root.Leader, root.FV, "descriptor's root directory does not exist on disk")
	} else if la := c.files[rootIdx].leaderAddr(); la != root.Leader {
		c.violate(RuleDesc, root.Leader, root.FV,
			"descriptor's root leader hint %d, leader is at %d", root.Leader, la)
	}

	// Directories: every directory file parses and every entry resolves.
	referenced := make(map[disk.FV]bool)
	for _, f := range c.files {
		if !f.fv.FID.IsDirectory() {
			continue
		}
		c.report.Directories++
		la := f.leaderAddr()
		if la == disk.NilVDA {
			continue // already a chain violation; nothing to parse
		}
		df, err := fs.Open(file.FN{FV: f.fv, Leader: la})
		if err != nil {
			c.violate(RuleDir, la, f.fv, "directory does not open: %v", err)
			continue
		}
		entries, err := dir.Adopt(fs, df).Load()
		if err != nil {
			c.violate(RuleDir, la, f.fv, "directory does not parse: %v", err)
			continue
		}
		c.report.DirEntries += len(entries)
		for _, e := range entries {
			tIdx, ok := c.byFV[e.FN.FV]
			if !ok {
				c.violate(RuleDir, la, f.fv, "entry %q names missing file %v", e.Name, e.FN.FV)
				continue
			}
			referenced[e.FN.FV] = true
			if ta := c.files[tIdx].leaderAddr(); ta != e.FN.Leader {
				c.violate(RuleDir, la, f.fv,
					"entry %q carries stale leader hint %d, leader is at %d", e.Name, e.FN.Leader, ta)
			}
		}
	}

	// Reachability: losing a directory loses only names — so after repair,
	// every file except the system trio must have a name again.
	for _, f := range c.files {
		switch {
		case f.fv.FID == disk.DescriptorFID || f.fv.FID == disk.BootFID:
			continue // standard name and address; no entry required
		case rootOK && f.fv == root.FV:
			continue // the root is named by the descriptor
		case !referenced[f.fv]:
			c.violate(RuleOrphan, f.leaderAddr(), f.fv, "file unreachable by any directory entry")
		}
	}
}
