package disk

// Convenience constructors for the handful of operation shapes the system
// uses. Higher layers are free to build Ops directly — the point of the open
// design is that nothing here is privileged — but these helpers encode the
// label discipline of §3.3 in one place:
//
//   - every access gives the page's full name, and the label is checked
//     before it is read, written or rewritten;
//   - a label is only written when freeing a page, when writing a page the
//     first time after allocation, or when changing the length of a file;
//   - each of those label writes is a separate operation from the check that
//     precedes it, so it costs an extra disk revolution, while ordinary data
//     reads and writes check the label in passing at no cost.

// checkWords converts a Label to the pattern a Check expects. Wildcarding is
// the caller's business: callers that want a guarded read of some field zero
// it explicitly (see LinkPattern).
func checkWords(l Label) [LabelWords]Word { return l.Words() }

// ReadValue reads the 256-word value of the page named by expect, verifying
// the label on the way past. On success the value is stored in *v.
func ReadValue(dev Device, addr VDA, expect Label, v *[PageWords]Word) error {
	lbl := checkWords(expect)
	return dev.Do(&Op{
		Addr:      addr,
		Label:     Check,
		LabelData: &lbl,
		Value:     Read,
		ValueData: v,
	})
}

// WriteValue writes the 256-word value of the page named by expect, verifying
// the label on the way past. The label itself is not touched, so this costs
// no extra revolution.
func WriteValue(dev Device, addr VDA, expect Label, v *[PageWords]Word) error {
	lbl := checkWords(expect)
	return dev.Do(&Op{
		Addr:      addr,
		Label:     Check,
		LabelData: &lbl,
		Value:     Write,
		ValueData: v,
	})
}

// LinkPattern builds a check pattern carrying only the absolute name
// (FID, version, page number), with the length and both links wildcarded.
// Checking with this pattern is how the system reads a page's links and
// length while verifying its identity — the paper's "basic operation ... to
// read the links, given the full name".
//
// A leader's page number is 0, which is also the check action's wildcard, so
// a page-0 pattern alone would pass every page of the file: a stale leader
// hint at a data page would verify, and a leader write through it would
// overwrite that page. The page-0 pattern therefore checks the back link
// too, against the NilVDA that only the first page of a chain carries.
func LinkPattern(fv FV, pn Word) [LabelWords]Word {
	prev := Word(0) // previous link: wildcard
	if pn == 0 {
		prev = Word(NilVDA)
	}
	return [LabelWords]Word{
		Word(fv.FID >> 16),
		Word(fv.FID),
		fv.Version,
		pn,
		0, // length: wildcard
		0, // next link: wildcard
		prev,
	}
}

// ReadLabel reads back the full label of the page (FV, pn) expected at addr,
// verifying the absolute name and filling in the hint fields from the disk.
func ReadLabel(dev Device, addr VDA, fv FV, pn Word) (Label, error) {
	pat := LinkPattern(fv, pn)
	err := dev.Do(&Op{Addr: addr, Label: Check, LabelData: &pat})
	if err != nil {
		return Label{}, err
	}
	return LabelFromWords(pat), nil
}

// ReadAnyLabel reads the raw label at addr with no expectations — the
// Scavenger's basic operation. The header is checked against the pack and
// address to confirm the head reached the right sector.
func ReadAnyLabel(dev Device, addr VDA) ([LabelWords]Word, error) {
	hdr := Header{Pack: dev.Pack(), Addr: addr}.Words()
	var lbl [LabelWords]Word
	err := dev.Do(&Op{
		Addr:       addr,
		Header:     Check,
		HeaderData: &hdr,
		Label:      Read,
		LabelData:  &lbl,
	})
	return lbl, err
}

// Allocate claims the page at addr for the label newLabel and writes its
// first value. It is the "first time the page is written after it has been
// allocated" case: the check is that the page is free, then the proper label
// is written (§3.3). Two operations on the same sector: one revolution.
func Allocate(dev Device, addr VDA, newLabel Label, v *[PageWords]Word) error {
	pat := freeLabelWords
	if err := dev.Do(&Op{Addr: addr, Label: Check, LabelData: &pat}); err != nil {
		return err
	}
	lbl := newLabel.Words()
	return dev.Do(&Op{
		Addr:      addr,
		Label:     Write,
		LabelData: &lbl,
		Value:     Write,
		ValueData: v,
	})
}

// onesValue is the all-ones value pattern written into a freed page. Write
// actions only read the caller's buffer, so one shared read-only copy
// serves every Free.
var onesValue = func() (v [PageWords]Word) {
	for i := range v {
		v[i] = 0xFFFF
	}
	return v
}()

// Free releases the page named by expect: its full name must be given, the
// check is that the label is the right one, and then ones are written into
// label and value (§3.3). One revolution.
func Free(dev Device, addr VDA, expect Label) error {
	pat := checkWords(expect)
	if err := dev.Do(&Op{Addr: addr, Label: Check, LabelData: &pat}); err != nil {
		return err
	}
	lbl := freeLabelWords
	return dev.Do(&Op{
		Addr:      addr,
		Label:     Write,
		LabelData: &lbl,
		Value:     Write,
		ValueData: &onesValue,
	})
}

// Relabel rewrites the label of the page named by expect — the "change the
// length of the file" case (§3.3): the old label is read and checked, then
// rewritten with new values. The value must be rewritten too (a write
// continues through the rest of the sector), so the caller supplies it.
// One revolution.
func Relabel(dev Device, addr VDA, expect, newLabel Label, v *[PageWords]Word) error {
	pat := checkWords(expect)
	if err := dev.Do(&Op{Addr: addr, Label: Check, LabelData: &pat}); err != nil {
		return err
	}
	lbl := newLabel.Words()
	return dev.Do(&Op{
		Addr:      addr,
		Label:     Write,
		LabelData: &lbl,
		Value:     Write,
		ValueData: v,
	})
}

// OpScratch holds reusable operation and pattern storage for the chained
// forms of the helpers above. The storage layer's hot paths keep one
// OpScratch per long-lived handle (a file handle, a scavenger) and reuse it
// for every allocate/free/relabel, so the steady state allocates nothing;
// the package-level helpers remain for one-shot callers. An OpScratch is
// not safe for concurrent use — neither is the single-user machine.
type OpScratch struct {
	ops [2]Op
	pat [LabelWords]Word
	lbl [LabelWords]Word
}

// Allocate is the chained form of Allocate: check-free then write, issued
// as one two-operation ordered chain. Same single revolution.
func (s *OpScratch) Allocate(dev Device, addr VDA, newLabel Label, v *[PageWords]Word) error {
	s.pat = freeLabelWords
	s.lbl = newLabel.Words()
	s.ops[0] = Op{Addr: addr, Label: Check, LabelData: &s.pat}
	s.ops[1] = Op{Addr: addr, Label: Write, LabelData: &s.lbl, Value: Write, ValueData: v}
	return FirstChainError(DoChainOn(dev, s.ops[:], Ordered))
}

// Free is the chained form of Free.
func (s *OpScratch) Free(dev Device, addr VDA, expect Label) error {
	s.pat = checkWords(expect)
	s.lbl = freeLabelWords
	s.ops[0] = Op{Addr: addr, Label: Check, LabelData: &s.pat}
	s.ops[1] = Op{Addr: addr, Label: Write, LabelData: &s.lbl, Value: Write, ValueData: &onesValue}
	return FirstChainError(DoChainOn(dev, s.ops[:], Ordered))
}

// Relabel is the chained form of Relabel.
func (s *OpScratch) Relabel(dev Device, addr VDA, expect, newLabel Label, v *[PageWords]Word) error {
	s.pat = checkWords(expect)
	s.lbl = newLabel.Words()
	s.ops[0] = Op{Addr: addr, Label: Check, LabelData: &s.pat}
	s.ops[1] = Op{Addr: addr, Label: Write, LabelData: &s.lbl, Value: Write, ValueData: v}
	return FirstChainError(DoChainOn(dev, s.ops[:], Ordered))
}
