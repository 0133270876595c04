// Package cpu implements the Alto's emulated processor: a Data General
// Nova-like 16-bit instruction set (§2: the machine "executes an instruction
// set that supports BCPL"). The real Alto implemented this instruction set —
// and others — in writeable microcode; we interpret it directly.
//
// A real, resumable processor is what makes the paper's world-swapping
// honest: OutLoad and InLoad (§4.1) save and restore *this* state — the
// accumulators, program counter, carry bit and all of main memory — and a
// restored program genuinely continues from the saved program counter.
//
// Instruction formats (standard Nova):
//
//	Memory reference:  [op:3][ac:2 or fn:2][@:1][idx:2][disp:8]
//	  000 fn: 00 JMP, 01 JSR, 10 ISZ, 11 DSZ
//	  001 LDA ac    010 STA ac
//	  idx: 00 page zero, 01 PC-relative, 10 AC2-relative, 11 AC3-relative
//	ALU:               [1][src:2][dst:2][fn:3][sh:2][cy:2][#:1][skip:3]
//	  fn: COM NEG MOV INC ADC SUB ADD AND
//	Trap (I/O format): [011][code:13] — SYS: calls into the operating system
//
// The trap format replaces the Nova's I/O instructions: on the Alto, device
// access and OS services went through trap-like mechanisms into microcode or
// resident system code.
package cpu

import (
	"errors"
	"fmt"
	"time"

	"altoos/internal/mem"
	"altoos/internal/sim"
)

// Word is the machine word.
type Word = uint16

// Register names for the four accumulators.
const (
	AC0 = 0
	AC1 = 1
	AC2 = 2
	AC3 = 3
)

// InstrTime is the modelled time per instruction. The Alto's Nova emulation
// ran on 800 ns memory at roughly half a million instructions per second.
const InstrTime = 2 * time.Microsecond

// Errors from execution.
var (
	// ErrHalted reports a step on a halted processor.
	ErrHalted = errors.New("cpu: halted")
	// ErrBadInstr reports an undefined encoding.
	ErrBadInstr = errors.New("cpu: undefined instruction")
)

// SysHandler receives SYS traps — the boundary where the machine enters the
// operating system's resident procedures. The handler may read and write the
// CPU state freely (the machine has no protection: the OS is just code).
type SysHandler interface {
	// Sys handles trap code. Returning an error halts the machine with
	// that error; returning ErrHalted halts it cleanly.
	Sys(c *CPU, code Word) error
}

// SysFunc adapts a function to SysHandler.
type SysFunc func(c *CPU, code Word) error

// Sys implements SysHandler.
func (f SysFunc) Sys(c *CPU, code Word) error { return f(c, code) }

// CPU is the processor state: everything OutLoad must save.
type CPU struct {
	AC     [4]Word
	PC     Word
	Carry  bool
	Halted bool

	Mem   *mem.Memory
	Clock *sim.Clock
	Sys   SysHandler

	// Steps counts executed instructions, for tests and benchmarks.
	Steps int64
}

// New returns a CPU over m, advancing clock (which may be nil for a private
// clock) and trapping to sys (which may be nil; traps then halt).
func New(m *mem.Memory, clock *sim.Clock, sys SysHandler) *CPU {
	if clock == nil {
		clock = sim.NewClock()
	}
	return &CPU{Mem: m, Clock: clock, Sys: sys}
}

// Reset clears registers and the halt flag, leaving memory alone.
func (c *CPU) Reset(pc Word) {
	c.AC = [4]Word{}
	c.PC = pc
	c.Carry = false
	c.Halted = false
}

// effective computes the effective address of a memory-reference
// instruction.
func (c *CPU) effective(instr Word) Word {
	disp := Word(instr & 0xFF)
	var ea Word
	switch (instr >> 8) & 3 {
	case 0: // page zero
		ea = disp
	case 1: // PC-relative, signed displacement, relative to the instruction
		ea = c.PC - 1 + signExtend(disp)
	case 2:
		ea = c.AC[2] + signExtend(disp)
	case 3:
		ea = c.AC[3] + signExtend(disp)
	}
	if instr&0x0400 != 0 { // indirect
		ea = c.Mem.Load(ea)
	}
	return ea
}

func signExtend(b Word) Word {
	if b&0x80 != 0 {
		return b | 0xFF00
	}
	return b
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return ErrHalted
	}
	c.Clock.Advance(InstrTime)
	c.Steps++
	instr := c.Mem.Load(c.PC)
	c.PC++

	switch {
	case instr&0x8000 != 0:
		return c.alu(instr)
	case instr>>13 == 0: // JMP/JSR/ISZ/DSZ
		ea := c.effective(instr)
		switch (instr >> 11) & 3 {
		case 0: // JMP
			c.PC = ea
		case 1: // JSR
			c.AC[3] = c.PC
			c.PC = ea
		case 2: // ISZ
			v := c.Mem.Load(ea) + 1
			c.Mem.Store(ea, v)
			if v == 0 {
				c.PC++
			}
		case 3: // DSZ
			v := c.Mem.Load(ea) - 1
			c.Mem.Store(ea, v)
			if v == 0 {
				c.PC++
			}
		}
	case instr>>13 == 1: // LDA
		ac := (instr >> 11) & 3
		c.AC[ac] = c.Mem.Load(c.effective(instr))
	case instr>>13 == 2: // STA
		ac := (instr >> 11) & 3
		c.Mem.Store(c.effective(instr), c.AC[ac])
	case instr>>13 == 3: // SYS trap
		code := instr & 0x1FFF
		if c.Sys == nil {
			c.Halted = true
			return fmt.Errorf("%w: SYS %d with no handler", ErrHalted, code)
		}
		if err := c.Sys.Sys(c, code); err != nil {
			c.Halted = true
			if errors.Is(err, ErrHalted) {
				return nil
			}
			return err
		}
	default:
		c.Halted = true
		return fmt.Errorf("%w: %#04x at %#04x", ErrBadInstr, instr, c.PC-1)
	}
	return nil
}

// alu executes a two-accumulator arithmetic instruction.
func (c *CPU) alu(instr Word) error {
	src := (instr >> 13) & 3
	dst := (instr >> 11) & 3
	fn := (instr >> 8) & 7
	shift := (instr >> 6) & 3
	carryCtl := (instr >> 4) & 3
	noLoad := instr&0x8 != 0
	skip := instr & 7

	// Carry preparation.
	cy := c.Carry
	switch carryCtl {
	case 1:
		cy = false
	case 2:
		cy = true
	case 3:
		cy = !cy
	}

	// Function. Arithmetic carry-out *complements* the prepared carry, as on
	// the Nova; logical functions pass the prepared carry through.
	s, d := uint32(c.AC[src]), uint32(c.AC[dst])
	var res uint32
	carryBit := cy
	arith := func(t uint32) {
		res = t & 0xFFFF
		if t > 0xFFFF {
			carryBit = !cy
		}
	}
	switch fn {
	case 0: // COM: one's complement of src
		res = ^s & 0xFFFF
	case 1: // NEG: two's complement of src
		arith((^s & 0xFFFF) + 1)
	case 2: // MOV
		res = s
	case 3: // INC
		arith(s + 1)
	case 4: // ADC: dst + ~src
		arith(d + (^s & 0xFFFF))
	case 5: // SUB: dst - src
		arith(d + (^s & 0xFFFF) + 1)
	case 6: // ADD
		arith(d + s)
	case 7: // AND
		res = d & s
	}
	r := res
	if carryBit {
		r |= 1 << 16
	}

	// Shifter.
	switch shift {
	case 1: // L: rotate left through carry (17-bit)
		r = ((r << 1) | (r >> 16)) & 0x1FFFF
	case 2: // R: rotate right through carry
		r = ((r >> 1) | (r << 16)) & 0x1FFFF
	case 3: // S: swap bytes, carry unchanged
		lo := r & 0xFFFF
		r = r&0x10000 | (lo>>8|lo<<8)&0xFFFF
	}

	result := Word(r & 0xFFFF)
	newCarry := r&0x10000 != 0

	// Skip sensing uses the shifter output even when no-load.
	doSkip := false
	switch skip {
	case 0:
	case 1:
		doSkip = true // SKP
	case 2:
		doSkip = !newCarry // SZC
	case 3:
		doSkip = newCarry // SNC
	case 4:
		doSkip = result == 0 // SZR
	case 5:
		doSkip = result != 0 // SNR
	case 6:
		doSkip = !newCarry || result == 0 // SEZ
	case 7:
		doSkip = newCarry && result != 0 // SBN
	}

	if !noLoad {
		c.AC[dst] = result
		c.Carry = newCarry
	}
	if doSkip {
		c.PC++
	}
	return nil
}

// Run executes until the machine halts or maxSteps instructions have run
// (maxSteps <= 0 means no limit). It returns the number of steps executed.
func (c *CPU) Run(maxSteps int64) (int64, error) {
	var n int64
	for !c.Halted {
		if maxSteps > 0 && n >= maxSteps {
			return n, nil
		}
		if err := c.Step(); err != nil {
			if errors.Is(err, ErrHalted) {
				return n, nil
			}
			return n, err
		}
		n++
	}
	return n, nil
}

// String formats the register state for diagnostics.
func (c *CPU) String() string {
	return fmt.Sprintf("PC=%#04x AC=[%#04x %#04x %#04x %#04x] C=%v halted=%v",
		c.PC, c.AC[0], c.AC[1], c.AC[2], c.AC[3], c.Carry, c.Halted)
}
