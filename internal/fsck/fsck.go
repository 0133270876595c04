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

// checker carries one check's state.
type checker struct {
	dev    disk.Device
	report *Report
	// files holds every sector claiming each (file, version) name, one run
	// of the sweep's label table per file, sorted by name. Every walk and
	// lookup uses this order, so two checks of the same pack report
	// identically.
	files []disk.FileGroup
	// busy mirrors what the allocation map must say: in-use, retired and
	// unreadable sectors.
	busy []bool

	// checkLeader's read, owned here: an Op passed through the Device
	// interface escapes, so building one per leader would allocate.
	op  disk.Op
	pat [disk.LabelWords]disk.Word
	val [disk.PageWords]disk.Word
}

// Check verifies every invariant on the pack behind dev. The returned error
// reports only infrastructure failure (an I/O error the sweep cannot
// classify); everything wrong with the pack itself lands in the report.
func Check(dev disk.Device) (*Report, error) {
	c := &checker{
		dev:    dev,
		report: &Report{},
		busy:   make([]bool, dev.Geometry().NSectors()),
	}
	if err := c.sweep(); err != nil {
		return nil, err
	}
	slices.SortFunc(c.files, func(a, b disk.FileGroup) int { return compareFV(a.FV, b.FV) })
	for i := range c.files {
		c.checkFile(&c.files[i])
	}
	c.checkSystem()
	return c.report, nil
}

// compareFV orders files by identifier, then version.
func compareFV(a, b disk.FV) int {
	return cmp.Or(cmp.Compare(a.FID, b.FID), cmp.Compare(a.Version, b.Version))
}

// lookup returns the file named fv, if any sector claims it.
func (c *checker) lookup(fv disk.FV) (*disk.FileGroup, bool) {
	i, ok := slices.BinarySearchFunc(c.files, fv, func(f disk.FileGroup, fv disk.FV) int { return compareFV(f.FV, fv) })
	if !ok {
		return nil, false
	}
	return &c.files[i], true
}

// violate records one finding.
func (c *checker) violate(rule string, addr disk.VDA, fv disk.FV, format string, args ...any) {
	c.report.Violations = append(c.report.Violations, Violation{
		Rule: rule, Addr: addr, FV: fv, Msg: fmt.Sprintf(format, args...),
	})
}

// sweep reads every label (the Scavenger's pass 1) into one flat label
// table and groups the in-use pages by file.
func (c *checker) sweep() error {
	n := c.dev.Geometry().NSectors()
	c.report.SectorsScanned = n
	table := disk.NewLabelTable(n)
	err := disk.SweepLabels(c.dev, func(addr disk.VDA, raw [disk.LabelWords]disk.Word, err error) error {
		switch {
		case errors.Is(err, disk.ErrBadSector) || disk.IsCheck(err):
			c.report.BadSectors++
			c.busy[addr] = true
		case err != nil:
			return fmt.Errorf("fsck: sweeping sector %d: %w", addr, err)
		case disk.IsFreeLabel(raw):
			c.report.FreePages++
		case disk.IsBadLabel(raw):
			c.report.RetiredPages++
			c.busy[addr] = true
		default:
			c.busy[addr] = true
			table.Add(addr, disk.LabelFromWords(raw))
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.files = table.Group()
	return nil
}

// leaderAddr returns the file's page-0 address, or NilVDA if it has none.
// pages are sorted by (pn, addr) by the time anyone asks.
func leaderAddr(f *disk.FileGroup) disk.VDA {
	if len(f.Pages) > 0 && f.Pages[0].PageNum == 0 {
		return f.Pages[0].Addr
	}
	return disk.NilVDA
}

// checkFile verifies one file's chain, lengths, links and leader.
func (c *checker) checkFile(f *disk.FileGroup) {
	c.report.FilesChecked++
	slices.SortFunc(f.Pages, func(a, b disk.LabelEntry) int {
		return cmp.Or(cmp.Compare(a.PageNum, b.PageNum), cmp.Compare(a.Addr, b.Addr))
	})

	// Ownership: a (file, page) name must name one sector.
	clean := true
	for i := 1; i < len(f.Pages); i++ {
		if f.Pages[i].PageNum == f.Pages[i-1].PageNum {
			c.violate(RuleOwner, f.Pages[i].Addr, f.FV,
				"page %d doubly owned (also at sector %d)", f.Pages[i].PageNum, f.Pages[i-1].Addr)
			clean = false
		}
	}

	// Contiguity: pages number 0..N with no gaps.
	if f.Pages[0].PageNum != 0 {
		c.violate(RuleChain, f.Pages[0].Addr, f.FV,
			"no leader page; chain starts at page %d", f.Pages[0].PageNum)
		clean = false
	}
	for i := 1; i < len(f.Pages); i++ {
		prev, cur := f.Pages[i-1].PageNum, f.Pages[i].PageNum
		if cur != prev && cur != prev+1 {
			c.violate(RuleChain, f.Pages[i].Addr, f.FV,
				"gap in chain: page %d follows page %d", cur, prev)
			clean = false
		}
	}

	// Lengths: every page but the last full, the last partial — the
	// invariant the storage layer maintains from a file's birth.
	last := len(f.Pages) - 1
	for i, p := range f.Pages {
		if i < last && p.Length != disk.PageBytes {
			c.violate(RuleChain, p.Addr, f.FV,
				"short interior page %d: %d bytes", p.PageNum, p.Length)
			clean = false
		}
	}
	if f.Pages[last].Length >= disk.PageBytes && last == 0 {
		c.violate(RuleChain, f.Pages[last].Addr, f.FV,
			"file is a bare full leader: missing partial tail page")
		clean = false
	} else if f.Pages[last].Length >= disk.PageBytes {
		c.violate(RuleChain, f.Pages[last].Addr, f.FV,
			"last page %d is full: missing partial tail", f.Pages[last].PageNum)
		clean = false
	}

	// Links: the doubly-linked chain closes over the sorted pages, NilVDA
	// at both ends. Only meaningful when the chain itself is sound.
	if clean {
		for i, p := range f.Pages {
			wantPrev, wantNext := disk.NilVDA, disk.NilVDA
			if i > 0 {
				wantPrev = f.Pages[i-1].Addr
			}
			if i < last {
				wantNext = f.Pages[i+1].Addr
			}
			if p.Next != wantNext {
				c.violate(RuleChain, p.Addr, f.FV,
					"page %d next link %d, chain says %d", p.PageNum, p.Next, wantNext)
			}
			if p.Prev != wantPrev {
				c.violate(RuleChain, p.Addr, f.FV,
					"page %d prev link %d, chain says %d", p.PageNum, p.Prev, wantPrev)
			}
		}
	}

	// Leader: page 0 must decode and agree with the chain. The descriptor
	// file's page 0 holds the descriptor, not a leader, so it is exempt.
	if clean && f.FV.FID != disk.DescriptorFID {
		c.checkLeader(f)
	}
}

// checkLeader reads and decodes page 0 and compares its hints to the chain.
func (c *checker) checkLeader(f *disk.FileGroup) {
	lp := f.Pages[0]
	c.pat = lp.Words()
	c.op = disk.Op{Addr: lp.Addr, Label: disk.Check, LabelData: &c.pat, Value: disk.Read, ValueData: &c.val}
	if err := c.dev.Do(&c.op); err != nil {
		c.violate(RuleLeader, lp.Addr, f.FV, "leader unreadable: %v", err)
		return
	}
	ldr, err := file.DecodeLeader(&c.val)
	if err != nil {
		c.violate(RuleLeader, lp.Addr, f.FV, "leader does not decode: %v", err)
		return
	}
	if ldr.NameLen() == 0 {
		c.violate(RuleLeader, lp.Addr, f.FV, "leader carries no name")
	}
	tail := f.Pages[len(f.Pages)-1]
	if ldr.LastPN != tail.PageNum || ldr.LastAddr != tail.Addr {
		c.violate(RuleLeader, lp.Addr, f.FV,
			"stale last-page hint: leader says (%d, %d), chain ends at (%d, %d)",
			ldr.LastPN, ldr.LastAddr, tail.PageNum, tail.Addr)
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
		if s := uint32(f.FV.FID &^ disk.DirFIDBit); s >= uint32(disk.FirstUserFID) && s > maxSerial {
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
	rootF, rootOK := c.lookup(root.FV)
	if !rootOK || !root.FV.FID.IsDirectory() {
		c.violate(RuleDesc, root.Leader, root.FV, "descriptor's root directory does not exist on disk")
	} else if la := leaderAddr(rootF); la != root.Leader {
		c.violate(RuleDesc, root.Leader, root.FV,
			"descriptor's root leader hint %d, leader is at %d", root.Leader, la)
	}

	// Directories: every directory file parses and every entry resolves.
	referenced := make(map[disk.FV]bool)
	for i := range c.files {
		f := &c.files[i]
		if !f.FV.FID.IsDirectory() {
			continue
		}
		c.report.Directories++
		la := leaderAddr(f)
		if la == disk.NilVDA {
			continue // already a chain violation; nothing to parse
		}
		df, err := fs.Open(file.FN{FV: f.FV, Leader: la})
		if err != nil {
			c.violate(RuleDir, la, f.FV, "directory does not open: %v", err)
			continue
		}
		entries, err := dir.Adopt(fs, df).Load()
		if err != nil {
			c.violate(RuleDir, la, f.FV, "directory does not parse: %v", err)
			continue
		}
		c.report.DirEntries += len(entries)
		for _, e := range entries {
			target, ok := c.lookup(e.FN.FV)
			if !ok {
				c.violate(RuleDir, la, f.FV, "entry %q names missing file %v", e.Name, e.FN.FV)
				continue
			}
			referenced[e.FN.FV] = true
			if ta := leaderAddr(target); ta != e.FN.Leader {
				c.violate(RuleDir, la, f.FV,
					"entry %q carries stale leader hint %d, leader is at %d", e.Name, e.FN.Leader, ta)
			}
		}
	}

	// Reachability: losing a directory loses only names — so after repair,
	// every file except the system trio must have a name again.
	for i := range c.files {
		f := &c.files[i]
		switch {
		case f.FV.FID == disk.DescriptorFID || f.FV.FID == disk.BootFID:
			continue // standard name and address; no entry required
		case rootOK && f.FV == root.FV:
			continue // the root is named by the descriptor
		case !referenced[f.FV]:
			c.violate(RuleOrphan, leaderAddr(f), f.FV, "file unreachable by any directory entry")
		}
	}
}
