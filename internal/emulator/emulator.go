// Package emulator executes program images functionally and produces the
// committed dynamic instruction stream that drives the timing and
// instruction-supply models. It is the reproduction's stand-in for
// SimpleScalar's functional core: architectural registers, a sparse data
// memory, and precise control-flow semantics — no timing.
package emulator

import (
	"errors"
	"fmt"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// Errors returned by Step.
var (
	// ErrHalted is returned once the program executes OpHalt; further
	// Steps keep returning it.
	ErrHalted = errors.New("emulator: halted")
	// ErrBadPC is returned when the PC leaves the program image.
	ErrBadPC = errors.New("emulator: PC outside image")
	// ErrCorruptStream is returned when a recorded stream's bytes
	// disagree with its program image: a branch with no recorded
	// outcome, an unreadable address delta, or a jump target outside
	// the image (which also wraps ErrBadPC).
	ErrCorruptStream = errors.New("emulator: corrupt stream")
)

// Dyn is one committed dynamic instruction. NextPC is the address of the
// next committed instruction, which for control transfers encodes the
// resolved outcome.
type Dyn struct {
	Seq     uint64   // 0-based commit index
	PC      uint32   // address of this instruction
	Inst    isa.Inst // decoded instruction
	Taken   bool     // conditional branches: resolved direction
	NextPC  uint32   // address of the next committed instruction
	MemAddr uint32   // loads/stores: effective byte address
}

const pageShift = 12 // 4 KiB pages of data memory
const pageWords = 1 << (pageShift - 2)

// Memory is a sparse, paged word memory. Addresses are byte addresses;
// accesses are word-aligned (low two bits ignored).
type Memory struct {
	pages map[uint32]*[pageWords]uint32
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageWords]uint32)}
}

// Load returns the word at byte address a (aligned down).
func (m *Memory) Load(a uint32) uint32 {
	p, ok := m.pages[a>>pageShift]
	if !ok {
		return 0
	}
	return p[(a&(1<<pageShift-1))>>2]
}

// Store writes the word at byte address a (aligned down).
func (m *Memory) Store(a, v uint32) {
	idx := a >> pageShift
	p, ok := m.pages[idx]
	if !ok {
		p = new([pageWords]uint32)
		m.pages[idx] = p
	}
	p[(a&(1<<pageShift-1))>>2] = v
}

// Pages reports how many distinct pages have been touched by stores.
func (m *Memory) Pages() int { return len(m.pages) }

// Emulator holds the architectural state of a running program.
type Emulator struct {
	im   *program.Image
	Regs [isa.NumRegs]uint32
	Mem  *Memory
	PC   uint32

	seq    uint64
	halted bool

	// Padding rounds the struct up to 192 bytes, three whole cache
	// lines, so emulators allocated back to back — one per goroutine
	// when sweep set-up records streams in parallel — never share a
	// line. Without it, false sharing on the registers and PC slows
	// parallel recording.
	_ [24]byte
}

// New creates an emulator for the image with the data section loaded,
// the stack pointer initialized, and the PC at the entry point.
func New(im *program.Image) *Emulator {
	e := &Emulator{im: im, Mem: NewMemory(), PC: im.Entry}
	for k, w := range im.Data {
		e.Mem.Store(im.DataBase+uint32(k)*4, w)
	}
	// Stack grows down from a region well above code and data.
	e.Regs[isa.RegSP] = 0x7FFF0000
	return e
}

// Halted reports whether the program has executed OpHalt.
func (e *Emulator) Halted() bool { return e.halted }

// Committed returns the number of instructions committed so far.
func (e *Emulator) Committed() uint64 { return e.seq }

// Step commits one instruction and returns its dynamic record.
func (e *Emulator) Step() (Dyn, error) {
	if e.halted {
		return Dyn{}, ErrHalted
	}
	in, ok := e.im.At(e.PC)
	if !ok {
		return Dyn{}, fmt.Errorf("%w: 0x%x", ErrBadPC, e.PC)
	}
	d := Dyn{Seq: e.seq, PC: e.PC, Inst: in}
	next := e.PC + isa.WordSize
	r := &e.Regs

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		r[in.Rd] = r[in.Ra] + r[in.Rb]
	case isa.OpSub:
		r[in.Rd] = r[in.Ra] - r[in.Rb]
	case isa.OpMul:
		r[in.Rd] = r[in.Ra] * r[in.Rb]
	case isa.OpDiv:
		if r[in.Rb] == 0 {
			r[in.Rd] = 0
		} else {
			r[in.Rd] = uint32(int32(r[in.Ra]) / int32(r[in.Rb]))
		}
	case isa.OpAnd:
		r[in.Rd] = r[in.Ra] & r[in.Rb]
	case isa.OpOr:
		r[in.Rd] = r[in.Ra] | r[in.Rb]
	case isa.OpXor:
		r[in.Rd] = r[in.Ra] ^ r[in.Rb]
	case isa.OpShl:
		r[in.Rd] = r[in.Ra] << (r[in.Rb] & 31)
	case isa.OpShr:
		r[in.Rd] = r[in.Ra] >> (r[in.Rb] & 31)
	case isa.OpAddI:
		r[in.Rd] = r[in.Ra] + uint32(in.Imm)
	case isa.OpAndI:
		r[in.Rd] = r[in.Ra] & uint32(in.Imm)
	case isa.OpOrI:
		r[in.Rd] = r[in.Ra] | uint32(in.Imm)
	case isa.OpXorI:
		r[in.Rd] = r[in.Ra] ^ uint32(in.Imm)
	case isa.OpShlI:
		r[in.Rd] = r[in.Ra] << (uint32(in.Imm) & 31)
	case isa.OpShrI:
		r[in.Rd] = r[in.Ra] >> (uint32(in.Imm) & 31)
	case isa.OpLui:
		r[in.Rd] = uint32(in.Imm) << 16
	case isa.OpSlt:
		if int32(r[in.Ra]) < int32(r[in.Rb]) {
			r[in.Rd] = 1
		} else {
			r[in.Rd] = 0
		}
	case isa.OpSltu:
		if r[in.Ra] < r[in.Rb] {
			r[in.Rd] = 1
		} else {
			r[in.Rd] = 0
		}
	case isa.OpLoad:
		d.MemAddr = r[in.Ra] + uint32(in.Imm)
		r[in.Rd] = e.Mem.Load(d.MemAddr)
	case isa.OpStore:
		d.MemAddr = r[in.Ra] + uint32(in.Imm)
		e.Mem.Store(d.MemAddr, r[in.Rb])
	case isa.OpBeq:
		d.Taken = r[in.Ra] == r[in.Rb]
	case isa.OpBne:
		d.Taken = r[in.Ra] != r[in.Rb]
	case isa.OpBlt:
		d.Taken = int32(r[in.Ra]) < int32(r[in.Rb])
	case isa.OpBge:
		d.Taken = int32(r[in.Ra]) >= int32(r[in.Rb])
	case isa.OpJmp:
		next = in.Target
	case isa.OpJal:
		r[isa.RegLink] = e.PC + isa.WordSize
		next = in.Target
	case isa.OpJr:
		next = r[in.Ra]
	case isa.OpJalr:
		t := r[in.Ra]
		r[isa.RegLink] = e.PC + isa.WordSize
		next = t
	case isa.OpHalt:
		e.halted = true
	default:
		return Dyn{}, fmt.Errorf("emulator: unimplemented op %v at 0x%x", in.Op, e.PC)
	}
	if in.IsBranch() && d.Taken {
		next = in.BranchTarget(e.PC)
	}
	r[isa.RegZero] = 0 // writes to r0 are discarded

	d.NextPC = next
	e.PC = next
	e.seq++
	return d, nil
}

// Run commits up to budget instructions, invoking fn for each. It stops
// early if fn returns false or the program halts. It returns the number of
// instructions committed and the first error other than a clean halt.
func (e *Emulator) Run(budget uint64, fn func(Dyn) bool) (uint64, error) {
	var n uint64
	for n < budget {
		d, err := e.Step()
		if err != nil {
			if errors.Is(err, ErrHalted) {
				return n, nil
			}
			return n, err
		}
		n++
		if fn != nil && !fn(d) {
			break
		}
	}
	return n, nil
}

// Image returns the program image being executed.
func (e *Emulator) Image() *program.Image { return e.im }
