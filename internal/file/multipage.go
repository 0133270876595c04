package file

import (
	"errors"
	"fmt"

	"altoos/internal/disk"
)

// Multi-page transfers: the bulk movers (the swapper, streams) touch runs
// of consecutive page numbers, and issuing those runs as one chained disk
// transfer lets the drive make a single scheduling decision for the whole
// run. Addresses come from the hint ladder's cheapest rungs — cached hints,
// or the §3.6 computed hint that a consecutively laid-out file keeps page p
// at leader+p — and every operation still checks the label in passing, so a
// wrong guess costs one chain abort and a climb of the ordinary ladder,
// never wrong data.

// ReadPages reads the full interior pages pn..pn+len(pages)-1 into pages,
// as chained transfers wherever page addresses are known or guessable.
func (f *File) ReadPages(pn disk.Word, pages [][disk.PageWords]disk.Word) error {
	return f.movePages(pn, pages, false)
}

// WritePages writes the full interior pages pn..pn+len(pages)-1 from pages,
// as chained transfers wherever page addresses are known or guessable.
// Interior pages are always exactly full, so no length is taken: resizing
// is WritePage's business.
func (f *File) WritePages(pn disk.Word, pages [][disk.PageWords]disk.Word) error {
	return f.movePages(pn, pages, true)
}

func (f *File) movePages(pn disk.Word, pages [][disk.PageWords]disk.Word, write bool) error {
	n := len(pages)
	if n == 0 {
		return nil
	}
	if f.deleted {
		return fmt.Errorf("%w: file %v deleted", ErrBadArg, f.fn.FV)
	}
	if pn < 1 || int(pn)+n-1 >= int(f.lastPN) {
		return fmt.Errorf("%w: pages %d..%d must be interior (last page is %d)",
			ErrBadArg, pn, int(pn)+n-1, f.lastPN)
	}
	if write {
		f.ldr.Written = f.fs.now()
	} else {
		f.ldr.Read = f.fs.now()
	}
	f.dirty = true

	act := disk.Read
	if write {
		act = disk.Write
	}
	sc := f.fs.lendChain(n)
	defer f.fs.returnChain(sc)
	ops, pats := sc.ops, sc.pats
	i := 0
	for i < n {
		// Extend a chain over every consecutive page whose address we
		// believe. Semantic order is link order, so the chain is Ordered:
		// a failed check stops it at that sector.
		j := i
		for j < n {
			p := pn + disk.Word(j)
			a, ok := f.pageGuess(p)
			if !ok {
				break
			}
			pats[j] = disk.LinkPattern(f.fn.FV, p)
			pats[j][4] = disk.PageBytes // interior pages are exactly full
			//altovet:allow labelcheck act is Read or Write; the label is checked either way
			ops[j] = disk.Op{Addr: a, Label: disk.Check, LabelData: &pats[j], Value: act, ValueData: &pages[j]}
			j++
		}
		if j == i {
			// No believed address: the single-page ladder finds the page
			// and harvests neighbour hints for the next chain.
			if err := f.movePage(pn+disk.Word(i), &pages[i], write); err != nil {
				return err
			}
			i++
			continue
		}
		base := i
		errs := disk.DoChainOn(f.fs.dev, ops[base:j], disk.Ordered)
		i = j
		for k := base; k < j; k++ {
			if errs != nil && errs[k-base] != nil {
				err := errs[k-base]
				if !errors.Is(err, disk.ErrChainAborted) && !recoverable(err) {
					return err
				}
				// A stale hint or wrong guess (or an op aborted behind
				// one): prune and climb the ladder for this page, then
				// resume chaining.
				p := pn + disk.Word(k)
				f.dropHint(p)
				if err := f.movePage(p, &pages[k], write); err != nil {
					return err
				}
				i = k + 1
				break
			}
			p := pn + disk.Word(k)
			f.setHint(p, ops[k].Addr)
			f.harvestLinks(p, pats[k])
		}
	}
	return nil
}

// chainScratch is the operation and label-pattern storage movePages builds
// its chains in.
type chainScratch struct {
	ops  []disk.Op
	pats [][disk.LabelWords]disk.Word
}

// lendChain lends the FS's chain scratch, sized for n pages, to one
// movePages call. A call that finds it out on loan — a transfer nested in
// ladder recovery, or another handle's on a second goroutine — gets its
// own, so the scratch is never shared.
func (fs *FS) lendChain(n int) *chainScratch {
	fs.mu.Lock()
	sc := fs.chain
	fs.chain = nil
	fs.mu.Unlock()
	if sc == nil {
		sc = new(chainScratch)
	}
	if cap(sc.ops) < n {
		sc.ops = make([]disk.Op, n)
		sc.pats = make([][disk.LabelWords]disk.Word, n)
	}
	sc.ops, sc.pats = sc.ops[:n], sc.pats[:n]
	return sc
}

// returnChain takes lent scratch back. The operations are cleared first, so
// the scratch keeps no caller's pages alive.
func (fs *FS) returnChain(sc *chainScratch) {
	clear(sc.ops)
	fs.mu.Lock()
	fs.chain = sc
	fs.mu.Unlock()
}

// movePage is the single-page fallback, with the full hint ladder behind it.
func (f *File) movePage(p disk.Word, buf *[disk.PageWords]disk.Word, write bool) error {
	if write {
		return f.WritePage(p, buf, disk.PageBytes)
	}
	_, err := f.ReadPage(p, buf)
	return err
}

// pageGuess returns the address the handle believes page p lives at: a
// cached hint, or for a consecutively laid-out file the computed address
// leader+p (§3.6's "hints may also be computed" case).
func (f *File) pageGuess(p disk.Word) (disk.VDA, bool) {
	if a := f.hint(p); a != disk.NilVDA {
		return a, true
	}
	if f.ldr.MaybeConsecutive {
		a := int(f.fn.Leader) + int(p)
		if a < f.fs.dev.Geometry().NSectors() {
			return disk.VDA(a), true
		}
	}
	return 0, false
}
