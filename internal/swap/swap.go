// Package swap implements the paper's inter-program communication mechanism
// (§4, §4.1): "a convention for restoring the entire state of the machine
// from a disk file", which lets an arbitrary program take over the machine.
// OutLoad writes the current machine state (accumulators, program counter,
// carry, and all 64K words of memory) onto a file; InLoad restores a state
// and passes a small message to the restored program.
//
// The key property — "the effect is that OutLoad returns again, this time
// with written false and with the message that was provided in the InLoad
// call" — is real here because the machine is a real interpreter: the saved
// program counter points just after the OutLoad trap, and the saved AC0 says
// "not written", so the restored program continues as if its own OutLoad had
// just returned with the partner's message.
//
// Timing: a machine state is 257 data pages. On a state file that already
// exists (the installed case) every page is an ordinary full-page write with
// the label checked in passing, so the whole swap streams at full disk rate:
// about a second on the standard drive, as §4.1 says. The first OutLoad to a
// fresh file also pays the one-revolution-per-page allocation cost — that is
// the installation pass.
package swap

import (
	"errors"
	"fmt"

	"altoos/internal/cpu"
	"altoos/internal/disk"
	"altoos/internal/file"
	"altoos/internal/trace"
)

// The counters and histograms this package records, interned once.
var (
	cInload  = trace.NewCounter("swap.inload")
	cOutload = trace.NewCounter("swap.outload")
)

// MsgWords is the size of the message vector ("about 20 words", §4.1).
const MsgWords = 20

// MsgBufAddr is the fixed page-zero address where InLoad deposits the
// message for the restored program.
const MsgBufAddr = 0x0020

// Message is the small parameter vector passed through InLoad. When the
// parameters don't fit, the convention is to pass the full name of a disk
// file holding them (§4.1) — see PackFN/UnpackFN.
type Message [MsgWords]uint16

// State-file layout, in data pages:
//
//	page 1:       header — magic, AC0..AC3, PC, carry
//	pages 2..257: the 64K words of memory, 256 words per page
const (
	stateMagic = 0xA175
	headerPage = 1
	memPages   = 256
	statePages = 1 + memPages // data pages holding real content
)

// Errors.
var (
	// ErrNotState reports a file that does not hold a machine state.
	ErrNotState = errors.New("swap: not a machine state file")
)

// SaveState writes the machine's entire state to the file named fn. The
// caller chooses what AC0 in the saved image says; OutLoad uses that to make
// the saved continuation see written=false.
func SaveState(fs *file.FS, c *cpu.CPU, fn file.FN) error {
	f, err := fs.Open(fn)
	if err != nil {
		return fmt.Errorf("swap: opening state file: %w", err)
	}
	return saveTo(f, c)
}

func saveTo(f *file.File, c *cpu.CPU) error {
	dev := f.Device()
	sp := trace.Of(dev).Begin(dev.Clock(), trace.KindSwapOut, f.Name(), int64(f.FN().FV.FID), statePages)
	defer sp.End()
	trace.Of(dev).Add(cOutload, 1)
	// Installation: grow the file once so every later save is pure
	// streaming writes.
	if err := ensureSize(f); err != nil {
		return err
	}
	// Build the whole image — header page plus the 64K words of memory —
	// and write it as one chained transfer: on an installed state file every
	// page address is known, so the drive makes a single scheduling decision
	// and streams the state at full disk rate.
	pages := make([][disk.PageWords]disk.Word, statePages)
	hdr := &pages[0]
	hdr[0] = stateMagic
	for i, v := range c.AC {
		hdr[1+i] = v
	}
	hdr[5] = c.PC
	if c.Carry {
		hdr[6] = 1
	}
	for p := 0; p < memPages; p++ {
		//altovet:allow wordwidth p < memPages = 256, so p*PageWords < 2^16
		c.Mem.LoadBlock(uint16(p*disk.PageWords), pages[1+p][:])
	}
	if err := f.WritePages(headerPage, pages); err != nil {
		return err
	}
	return f.Sync()
}

// ensureSize grows the file to hold a machine state.
func ensureSize(f *file.File) error {
	var zero [disk.PageWords]disk.Word
	for {
		lastPN := f.LastPN()
		if int(lastPN) > statePages {
			return nil
		}
		if err := f.WritePage(lastPN, &zero, disk.PageBytes); err != nil {
			return err
		}
	}
}

// LoadState replaces the machine's state from the file named fn.
func LoadState(fs *file.FS, c *cpu.CPU, fn file.FN) error {
	f, err := fs.Open(fn)
	if err != nil {
		return fmt.Errorf("swap: opening state file: %w", err)
	}
	lastPN := f.LastPN()
	if int(lastPN) < statePages {
		return fmt.Errorf("%w: %v has only %d pages", ErrNotState, fn.FV, lastPN)
	}
	dev := f.Device()
	sp := trace.Of(dev).Begin(dev.Clock(), trace.KindSwapIn, f.Name(), int64(fn.FV.FID), statePages)
	defer sp.End()
	trace.Of(dev).Add(cInload, 1)
	var hdr [disk.PageWords]disk.Word
	if _, err := f.ReadPage(headerPage, &hdr); err != nil {
		return err
	}
	if hdr[0] != stateMagic {
		return fmt.Errorf("%w: bad magic %#04x", ErrNotState, hdr[0])
	}
	// Read the memory image as one chained transfer, into a buffer first so
	// a read failure leaves the running machine untouched. A state file
	// written by saveTo keeps all 256 memory pages interior; a hand-built
	// file may end exactly at page 257, whose last page is read singly.
	mem := make([][disk.PageWords]disk.Word, memPages)
	interior := int(lastPN) - 1 - headerPage // pages headerPage+1..lastPN-1
	if interior > memPages {
		interior = memPages
	}
	if interior > 0 {
		if err := f.ReadPages(headerPage+1, mem[:interior]); err != nil {
			return err
		}
	}
	for p := interior; p < memPages; p++ {
		//altovet:allow wordwidth headerPage+1+p <= 257, far below 2^16
		if _, err := f.ReadPage(disk.Word(headerPage+1+p), &mem[p]); err != nil {
			return err
		}
	}
	for p := range mem {
		//altovet:allow wordwidth p < memPages = 256, so p*PageWords < 2^16
		c.Mem.StoreBlock(uint16(p*disk.PageWords), mem[p][:])
	}
	// Registers last, from the header we read first.
	for i := range c.AC {
		c.AC[i] = hdr[1+i]
	}
	c.PC = hdr[5]
	c.Carry = hdr[6] != 0
	c.Halted = false
	return nil
}

// OutLoad writes the current machine state on the file and returns with
// written true. The state is saved with AC0 = 0, so when some later InLoad
// restores it, the machine continues from the saved PC seeing written =
// false, with the message at MsgBufAddr — the paper's double return.
func OutLoad(fs *file.FS, c *cpu.CPU, fn file.FN) (written bool, err error) {
	savedAC0 := c.AC[0]
	c.AC[0] = 0 // the continuation's view: written = false
	err = SaveState(fs, c, fn)
	c.AC[0] = savedAC0
	if err != nil {
		return false, err
	}
	return true, nil
}

// InLoad restores the machine state from the given file and passes the
// message to the restored program by depositing it at MsgBufAddr. After
// InLoad the machine is ready to Run; it "does not return" to the program
// that called it, whose state is simply gone unless it OutLoaded first.
func InLoad(fs *file.FS, c *cpu.CPU, fn file.FN, msg Message) error {
	if err := LoadState(fs, c, fn); err != nil {
		return err
	}
	for i, w := range msg {
		c.Mem.Store(MsgBufAddr+uint16(i), w)
	}
	return nil
}

// EmergencyOutLoad is the §4.1 "partial solution" for saving a machine whose
// resident system may have been obliterated: "a special emergency bootstrap
// program, containing only the OutLoad procedure, that writes most of the
// machine state onto a disk file. Unfortunately, this method could not
// preserve some of the most vital state (e.g., processor registers)."
//
// Ours writes all of memory but, faithfully, not the registers: the restored
// machine has the dead program's memory for a debugger to pick over, with
// AC0..AC3, PC and carry zeroed.
func EmergencyOutLoad(fs *file.FS, c *cpu.CPU, fn file.FN) error {
	ghost := *c // copy registers so we can censor them
	ghost.AC = [4]disk.Word{}
	ghost.PC = 0
	ghost.Carry = false
	return SaveState(fs, &ghost, fn)
}

// PackFN encodes a full name into the head of a message — the convention
// for passing "a return address, that is, the full name of a file to
// restore upon return" (§4.1).
func PackFN(fn file.FN) Message {
	var m Message
	m[0] = uint16(fn.FV.FID >> 16)
	m[1] = uint16(fn.FV.FID)
	m[2] = fn.FV.Version
	m[3] = uint16(fn.Leader)
	return m
}

// UnpackFN decodes a full name from the head of a message.
func UnpackFN(m Message) file.FN {
	return file.FN{
		FV: disk.FV{
			FID:     disk.FID(m[0])<<16 | disk.FID(m[1]),
			Version: m[2],
		},
		Leader: disk.VDA(m[3]),
	}
}

// ReadMessage fetches the message a restored program received.
func ReadMessage(c *cpu.CPU) Message {
	var m Message
	for i := range m {
		m[i] = c.Mem.Load(MsgBufAddr + uint16(i))
	}
	return m
}
