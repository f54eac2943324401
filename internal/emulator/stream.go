package emulator

import (
	"encoding/binary"
	"fmt"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// Stream is a compact recording of a committed dynamic instruction
// stream. Only the truly dynamic bits are stored — conditional branch
// outcomes (one bit each), indirect jump targets and memory effective
// addresses (zig-zag varint deltas) — everything else is regenerated
// from the immutable program image during replay. Typical encodings run
// well under 2 bytes per instruction, far below the 8-byte budget.
//
// A Stream is immutable once sealed and safe to share across goroutines;
// each concurrent consumer gets its own Replayer.
type Stream struct {
	im    *program.Image
	entry uint32 // PC of the first recorded instruction
	n     uint64 // instructions recorded
	taken []byte // conditional branch outcomes, bit-packed in commit order
	nbits uint64 // bits used in taken
	aux   []byte // varint deltas: mem addresses and indirect targets, in commit order
}

// Len returns the number of recorded instructions.
func (s *Stream) Len() uint64 { return s.n }

// Image returns the program image the stream was recorded from.
func (s *Stream) Image() *program.Image { return s.im }

// Bytes returns the encoded size of the stream in bytes (excluding the
// shared program image).
func (s *Stream) Bytes() int { return len(s.taken) + len(s.aux) + 32 }

// BytesPerInstr returns the amortized encoding cost.
func (s *Stream) BytesPerInstr() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.Bytes()) / float64(s.n)
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Record runs a fresh emulator for up to budget committed instructions
// and returns the sealed recording. The recording ends early on a clean
// halt; any other emulation error is returned.
func Record(im *program.Image, budget uint64) (*Stream, error) {
	s, err := New(im).Record(budget)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Replayer re-emits a recorded Stream as Dyn records. Replay is
// allocation-free and bit-identical to the original
// emulation: instructions are re-decoded from the program image and the
// recorded dynamic bits fill in branch outcomes, indirect targets and
// memory addresses.
type Replayer struct {
	s       *Stream
	code    []isa.Inst // the image's decoded instructions (shared, read-only)
	base    uint32     // image base: code[(pc-base)/WordSize] decodes pc
	pc      uint32
	seq     uint64
	bitPos  uint64
	auxPos  int
	lastMem uint32
	err     error
}

// Replay returns a fresh Replayer positioned at the start of the
// stream. Replayers are independent: any number may consume the same
// Stream concurrently.
func (s *Stream) Replay() *Replayer {
	return &Replayer{s: s, pc: s.entry, code: s.im.Insts(), base: s.im.Base}
}

// readAux decodes the next varint delta from the aux buffer.
func (r *Replayer) readAux() (int64, bool) {
	u, k := binary.Uvarint(r.s.aux[r.auxPos:])
	if k <= 0 {
		r.err = fmt.Errorf("%w: aux data at %d", ErrCorruptStream, r.auxPos)
		return 0, false
	}
	r.auxPos += k
	return unzigzag(u), true
}

// Next returns the next recorded instruction, or ok=false at end of
// stream or on error (see Err).
func (r *Replayer) Next() (Dyn, bool) {
	var d Dyn
	if !r.NextInto(&d) {
		return Dyn{}, false
	}
	return d, true
}

// NextInto decodes the next instruction directly into *d, avoiding the
// value-return copy on the hot path. It reports false at end of stream
// or on error (*d is then undefined).
func (r *Replayer) NextInto(d *Dyn) bool {
	if r.err != nil || r.seq >= r.s.n {
		return false
	}
	idx := (r.pc - r.base) / isa.WordSize
	if uint64(idx) >= uint64(len(r.code)) || (r.pc-r.base)%isa.WordSize != 0 {
		// Recording stops at the first bad PC, so replay reaching one
		// means the recorded bytes are corrupt.
		r.err = fmt.Errorf("%w: %w: 0x%x (replay)", ErrCorruptStream, ErrBadPC, r.pc)
		return false
	}
	in := &r.code[idx]
	d.Seq = r.seq
	d.PC = r.pc
	d.Inst = *in
	d.Taken = false
	d.NextPC = 0
	d.MemAddr = 0
	next := r.pc + isa.WordSize
	switch in.Op {
	case isa.OpLoad, isa.OpStore:
		delta, ok := r.readAux()
		if !ok {
			return false
		}
		d.MemAddr = uint32(int64(r.lastMem) + delta)
		r.lastMem = d.MemAddr
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		i := r.bitPos / 8
		if r.bitPos >= r.s.nbits || i >= uint64(len(r.s.taken)) {
			r.err = fmt.Errorf("%w: branch bits exhausted at seq %d", ErrCorruptStream, r.seq)
			return false
		}
		d.Taken = r.s.taken[i]&(1<<(r.bitPos%8)) != 0
		r.bitPos++
		if d.Taken {
			next = in.BranchTarget(r.pc)
		}
	case isa.OpJmp, isa.OpJal:
		next = in.Target
	case isa.OpJr, isa.OpJalr:
		delta, ok := r.readAux()
		if !ok {
			return false
		}
		next = uint32(int64(r.pc) + int64(isa.WordSize) + delta)
	}
	d.NextPC = next
	r.pc = next
	r.seq++
	return true
}

// Err reports the first decode error, if any.
func (r *Replayer) Err() error { return r.err }
