// Package emulator executes program images functionally and records the
// committed dynamic instruction stream that drives the timing and
// instruction-supply models. It is the reproduction's stand-in for
// SimpleScalar's functional core: architectural registers, a sparse data
// memory, and precise control-flow semantics — no timing.
package emulator

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

var (
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

// noPage is a page index no 32-bit address maps to.
const noPage = 1 << (32 - pageShift)

// Memory is a sparse, paged word memory. Addresses are byte addresses;
// accesses are word-aligned (low two bits ignored). The last page
// accessed sits in front of the page map, so runs of accesses to one
// page skip the map lookup. Only pages that exist are cached: a load
// from an absent page leaves the cache alone, so a later store to that
// page still creates it.
type Memory struct {
	pages   map[uint32]*[pageWords]uint32
	lastIdx uint32 // page index of last, or noPage
	last    *[pageWords]uint32
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageWords]uint32), lastIdx: noPage}
}

// page returns the page holding byte address a, creating it if create
// is set; it returns nil for an absent page otherwise.
func (m *Memory) page(a uint32, create bool) *[pageWords]uint32 {
	idx := a >> pageShift
	if idx == m.lastIdx {
		return m.last
	}
	p, ok := m.pages[idx]
	if !ok {
		if !create {
			return nil
		}
		p = new([pageWords]uint32)
		m.pages[idx] = p
	}
	m.lastIdx, m.last = idx, p
	return p
}

// Load returns the word at byte address a (aligned down).
func (m *Memory) Load(a uint32) uint32 {
	if p := m.page(a, false); p != nil {
		return p[(a&(1<<pageShift-1))>>2]
	}
	return 0
}

// Store writes the word at byte address a (aligned down).
func (m *Memory) Store(a, v uint32) {
	m.page(a, true)[(a&(1<<pageShift-1))>>2] = v
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
	// line. Without it, false sharing on the registers slows parallel
	// recording.
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

// Record commits up to budget more instructions and returns them as a
// sealed Stream starting at the current PC. One loop executes each
// instruction and appends its dynamic bits in place: the outcome bit of
// a conditional branch, the address delta of a load or store, the
// target delta of an indirect jump. Recording ends early on a clean
// halt, which is recorded; a halted emulator records nothing. On any
// other error — the PC leaving the image, an unimplemented op — the
// stream holds the instructions committed before it.
func (e *Emulator) Record(budget uint64) (*Stream, error) {
	code, base := e.im.Insts(), e.im.Base
	r, mem := &e.Regs, e.Mem
	pc, start := e.PC, e.PC
	var (
		n, nbits uint64
		bits     byte   // branch outcomes not yet appended to taken
		taken    []byte // full bytes of branch outcomes
		aux      []byte
		lastMem  uint32
		err      error
	)
	if e.halted {
		budget = 0
	}
loop:
	for n < budget {
		off := pc - base
		k := int(off / isa.WordSize)
		if off%isa.WordSize != 0 || k >= len(code) {
			err = fmt.Errorf("%w: 0x%x", ErrBadPC, pc)
			break
		}
		in := &code[k]
		next := pc + isa.WordSize
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
			r[in.Rd] = b2u(int32(r[in.Ra]) < int32(r[in.Rb]))
		case isa.OpSltu:
			r[in.Rd] = b2u(r[in.Ra] < r[in.Rb])
		case isa.OpLoad, isa.OpStore:
			a := r[in.Ra] + uint32(in.Imm)
			if in.Op == isa.OpLoad {
				r[in.Rd] = mem.Load(a)
			} else {
				mem.Store(a, r[in.Rb])
			}
			aux = binary.AppendUvarint(aux, zigzag(int64(a)-int64(lastMem)))
			lastMem = a
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			var t bool
			switch x, y := r[in.Ra], r[in.Rb]; in.Op {
			case isa.OpBeq:
				t = x == y
			case isa.OpBne:
				t = x != y
			case isa.OpBlt:
				t = int32(x) < int32(y)
			default:
				t = int32(x) >= int32(y)
			}
			if t {
				bits |= 1 << (nbits % 8)
				next = in.BranchTarget(pc)
			}
			if nbits++; nbits%8 == 0 {
				taken, bits = append(taken, bits), 0
			}
		case isa.OpJmp:
			next = in.Target
		case isa.OpJal:
			r[isa.RegLink] = next
			next = in.Target
		case isa.OpJr, isa.OpJalr:
			t := r[in.Ra]
			if in.Op == isa.OpJalr {
				r[isa.RegLink] = next
			}
			aux = binary.AppendUvarint(aux, zigzag(int64(t)-int64(next)))
			next = t
		case isa.OpHalt:
			e.halted = true
			budget = n + 1 // the halt commits, then recording ends
		default:
			err = fmt.Errorf("emulator: unimplemented op %v at 0x%x", in.Op, pc)
			break loop
		}
		r[isa.RegZero] = 0 // writes to r0 are discarded
		pc = next
		n++
	}
	if nbits%8 != 0 {
		taken = append(taken, bits)
	}
	s := &Stream{im: e.im, n: n, nbits: nbits, taken: taken, aux: aux}
	if n > 0 {
		s.entry = start
	}
	e.PC, e.seq = pc, e.seq+n
	return s, err
}

// b2u converts a comparison result to the 0 or 1 that slt writes.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run commits up to budget instructions and, when fn is non-nil, passes
// each to it in commit order: it records them, then replays the
// recording. It returns the number committed and the first error other
// than a clean halt.
func (e *Emulator) Run(budget uint64, fn func(Dyn)) (uint64, error) {
	s, err := e.Record(budget)
	if fn != nil {
		rp := s.Replay()
		for d, ok := rp.Next(); ok; d, ok = rp.Next() {
			fn(d)
		}
	}
	return s.n, err
}
