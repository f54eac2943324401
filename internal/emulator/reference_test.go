package emulator

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// This file keeps the interpreter and encoder that recorded streams
// before Emulator.Record fused them into one loop: Step returned one
// Dyn per instruction, Run fed each to a callback, and the Recorder's
// Observe encoded it. They are the oracle FuzzRecord holds the fused
// loop to; only the receiver types are renamed, the bodies are as they
// were. refMemory is the page map without a page cache in front of it.

// ErrHalted is returned once the program executes OpHalt; further
// Steps keep returning it.
var ErrHalted = errors.New("emulator: halted")

type refMemory struct {
	pages map[uint32]*[pageWords]uint32
}

func newRefMemory() *refMemory {
	return &refMemory{pages: make(map[uint32]*[pageWords]uint32)}
}

// Load returns the word at byte address a (aligned down).
func (m *refMemory) Load(a uint32) uint32 {
	p, ok := m.pages[a>>pageShift]
	if !ok {
		return 0
	}
	return p[(a&(1<<pageShift-1))>>2]
}

// Store writes the word at byte address a (aligned down).
func (m *refMemory) Store(a, v uint32) {
	idx := a >> pageShift
	p, ok := m.pages[idx]
	if !ok {
		p = new([pageWords]uint32)
		m.pages[idx] = p
	}
	p[(a&(1<<pageShift-1))>>2] = v
}

type refEmulator struct {
	im   *program.Image
	Regs [isa.NumRegs]uint32
	Mem  *refMemory
	PC   uint32

	seq    uint64
	halted bool
}

func newRef(im *program.Image) *refEmulator {
	e := &refEmulator{im: im, Mem: newRefMemory(), PC: im.Entry}
	for k, w := range im.Data {
		e.Mem.Store(im.DataBase+uint32(k)*4, w)
	}
	// Stack grows down from a region well above code and data.
	e.Regs[isa.RegSP] = 0x7FFF0000
	return e
}

// Step commits one instruction and returns its dynamic record.
func (e *refEmulator) Step() (Dyn, error) {
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
func (e *refEmulator) Run(budget uint64, fn func(Dyn) bool) (uint64, error) {
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

// refRecorder captures a committed instruction stream into a Stream. Feed
// it every Dyn in commit order via Observe, then call Stream to seal.
type refRecorder struct {
	s       Stream
	lastMem uint32
	started bool
}

func newRefRecorder(im *program.Image) *refRecorder {
	return &refRecorder{s: Stream{im: im}}
}

// Observe appends one committed instruction to the recording. Records
// must arrive in commit order starting from the first instruction.
func (r *refRecorder) Observe(d Dyn) {
	if !r.started {
		r.s.entry = d.PC
		r.started = true
	}
	switch d.Inst.Op {
	case isa.OpLoad, isa.OpStore:
		delta := int64(d.MemAddr) - int64(r.lastMem)
		r.s.aux = binary.AppendUvarint(r.s.aux, zigzag(delta))
		r.lastMem = d.MemAddr
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if r.s.nbits%8 == 0 {
			r.s.taken = append(r.s.taken, 0)
		}
		if d.Taken {
			r.s.taken[r.s.nbits/8] |= 1 << (r.s.nbits % 8)
		}
		r.s.nbits++
	case isa.OpJr, isa.OpJalr:
		delta := int64(d.NextPC) - int64(d.PC+isa.WordSize)
		r.s.aux = binary.AppendUvarint(r.s.aux, zigzag(delta))
	}
	r.s.n++
}

// Stream seals and returns the recording. The Recorder must not be used
// afterwards.
func (r *refRecorder) Stream() *Stream {
	s := r.s
	return &s
}

// refRecord records up to budget instructions of a fresh reference
// emulator the way Record did before the fused loop. Unlike Record it
// also returns the partial stream and the emulator's final state on an
// error, for FuzzRecord to compare.
func refRecord(im *program.Image, budget uint64) (*Stream, *refEmulator, error) {
	e := newRef(im)
	r := newRefRecorder(im)
	_, err := e.Run(budget, func(d Dyn) bool {
		r.Observe(d)
		return true
	})
	return r.Stream(), e, err
}
