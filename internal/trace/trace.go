// Package trace defines traces — snapshots of short segments of the
// dynamic instruction stream — and the trace selection rules that decide
// where traces begin and end.
//
// Trace selection is the heart of the alignment problem (§2.2 of the
// paper): a preconstructed trace is only useful if it starts exactly
// where a trace the processor needs starts. Both the fill unit (which
// builds traces from the committed stream) and the preconstruction
// engine (which builds traces from a static walk) therefore apply the
// same termination rules — the engine through Builder, the fill unit
// through ChunkSegmenter, which restates Builder's rules and is tested
// against it:
//
//   - a trace never exceeds MaxLen instructions;
//   - a trace ends at a return instruction (so traces following returns
//     start at the return target and align naturally);
//   - a trace ends at an indirect jump (the preconstructor cannot
//     resolve the target, and ending there keeps selection identical);
//   - if the trace contains a backward branch, it ends when the number
//     of instructions past the most recent backward branch is a positive
//     multiple of AlignMod (the paper's "multiple of four instructions
//     beyond a backward branch" heuristic, which quantizes loop-exit
//     boundaries so preconstructed traces can align with them).
package trace

import (
	"fmt"
	"strings"

	"tracepre/internal/isa"
)

// ID uniquely identifies a trace: its starting address plus the outcomes
// of the conditional branches inside it. Because trace termination is a
// deterministic function of the path, (start, branch count, outcome bits)
// pins down the exact instruction sequence.
type ID struct {
	Start uint32 // address of the first instruction
	NumBr uint8  // number of conditional branches in the trace
	Mask  uint16 // branch outcomes, bit i = i-th branch taken
}

// Zero reports whether the ID is the zero value (no trace).
func (id ID) Zero() bool { return id == ID{} }

// Hash mixes the ID into a 32-bit value used to index trace storage and
// the next-trace predictor.
func (id ID) Hash() uint32 {
	// Pack the fields injectively into 64 bits, then mix (splitmix64
	// finalizer) so every output bit depends on every field.
	h := uint64(id.Start/isa.WordSize) | uint64(id.Mask)<<30 | uint64(id.NumBr)<<46
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return uint32(h)
}

// String renders the ID compactly for logs and tests.
func (id ID) String() string {
	return fmt.Sprintf("T[0x%x/%d:%0*b]", id.Start, id.NumBr, id.NumBr, id.Mask)
}

// Flags are per-trace predicates precomputed at seal time, so consumers
// that query them per lookup (the next-trace predictor's return history
// stack keys off ContainsCall on every Update) never rescan the
// instruction sequence. The length-class bits quantize Len against the
// selection parameters that built the trace.
type Flags uint8

const (
	// FlagContainsCall is set when any instruction in the trace is a
	// call (jal or jalr).
	FlagContainsCall Flags = 1 << iota
	// FlagContainsBackward is set when the trace contains a backward
	// conditional branch (a loop back edge).
	FlagContainsBackward
	// FlagFullLength is set when the trace filled the selector's MaxLen
	// budget (length class: maximal).
	FlagFullLength
	// FlagShort is set when the trace is at most one alignment quantum
	// (AlignMod instructions) long (length class: minimal).
	FlagShort
)

// Trace is a constructed trace: the instruction sequence, its identity,
// and bookkeeping the timing model and preconstructor need.
type Trace struct {
	PCs   []uint32   // per-instruction addresses
	Insts []isa.Inst // decoded instructions, same order

	BrMask uint16 // conditional branch outcomes in order
	NumBr  uint8

	// Flags carry predicates of the instruction sequence, precomputed
	// when the trace is sealed. Code that constructs traces by hand
	// (tests, tools) must set them to match the contents.
	Flags Flags

	EndsInReturn   bool
	EndsInIndirect bool
	EndsInHalt     bool

	// Succ is the address of the instruction that follows the trace:
	// the natural start of the next trace. Zero when unknown (a trace
	// ending at an unresolved indirect jump during preconstruction).
	Succ uint32

	// Opt carries fill-unit preprocessing metadata when the extended
	// pipeline's preprocessing stage is enabled (see internal/preproc).
	// It is opaque to this package.
	Opt interface{}

	// Intern bookkeeping, managed by Store. Zero for unmanaged traces.
	store    *Store
	refs     int32
	chunk    int32
	limboIdx int32
	hash     uint32 // ID.Hash(), cached for the store's index probes
}

// ID returns the trace's identity.
func (t *Trace) ID() ID {
	if len(t.PCs) == 0 {
		return ID{}
	}
	return ID{Start: t.PCs[0], NumBr: t.NumBr, Mask: t.BrMask}
}

// Len returns the instruction count.
func (t *Trace) Len() int { return len(t.Insts) }

// String renders the trace as start address, length and branch mask.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v len=%d succ=0x%x", t.ID(), t.Len(), t.Succ)
	return b.String()
}

// SelectConfig parameterizes trace selection. The defaults mirror §4.1.
type SelectConfig struct {
	MaxLen   int // maximum instructions per trace (paper: 16)
	AlignMod int // quantum past a backward branch (paper: 4)
}

// DefaultSelectConfig returns the paper's trace selection parameters.
func DefaultSelectConfig() SelectConfig {
	return SelectConfig{MaxLen: 16, AlignMod: 4}
}

// Validate checks the configuration.
func (c SelectConfig) Validate() error {
	if c.MaxLen <= 0 || c.MaxLen > 16 {
		return fmt.Errorf("trace: MaxLen %d out of range (1..16)", c.MaxLen)
	}
	if c.AlignMod <= 0 {
		return fmt.Errorf("trace: AlignMod %d must be positive", c.AlignMod)
	}
	return nil
}

// Builder accumulates instructions into a trace, applying the selection
// rules identically for the fill unit and the preconstructor.
//
// Anchored mode treats the trace start as if a backward branch
// immediately preceded it. The preconstructor uses this for regions
// rooted at loop exits: the region start point is the backward branch's
// fall-through, so counting from the region start reproduces the
// machine's count past the branch, and the trace boundaries coincide.
type Builder struct {
	cfg SelectConfig
	t   Trace
	// Fixed per-trace buffers (selection caps MaxLen at 16): index
	// writes instead of slice appends keep this off the heap and out of
	// the preconstruction walk's critical path. Seal aliases them.
	pcs      [16]uint32
	insts    [16]isa.Inst
	k        int
	sinceBwd int // instructions appended since last backward branch; -1 = none seen
}

// NewBuilder returns a Builder for one trace. If anchored, the
// alignment counter is active from the first instruction.
func NewBuilder(cfg SelectConfig, anchored bool) *Builder {
	b := &Builder{cfg: cfg, sinceBwd: -1}
	if anchored {
		b.sinceBwd = 0
	}
	return b
}

// Reset clears the builder for a new trace with the same configuration.
func (b *Builder) Reset(anchored bool) {
	b.t = Trace{}
	b.k = 0
	b.sinceBwd = -1
	if anchored {
		b.sinceBwd = 0
	}
}

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int { return b.k }

// Append adds one instruction with its resolved (or predicted) branch
// direction and reports whether the trace is now complete. Appending to
// a complete trace is a caller bug and panics.
func (b *Builder) Append(pc uint32, in isa.Inst, taken bool) (done bool) {
	return b.AppendClassified(pc, in, in.Classify(), taken)
}

// AppendClassified is Append for callers that already classified the
// instruction (the preconstruction walk classifies to resolve the next
// PC); class must equal in.Classify().
func (b *Builder) AppendClassified(pc uint32, in isa.Inst, class isa.Class, taken bool) (done bool) {
	k := b.k
	if uint(k) >= uint(len(b.insts)) || k >= b.cfg.MaxLen {
		panic("trace: Append past MaxLen")
	}
	b.pcs[k] = pc
	b.insts[k] = in
	b.k = k + 1
	if b.sinceBwd >= 0 {
		b.sinceBwd++
	}

	switch class {
	case isa.ClassBranch:
		if taken {
			b.t.BrMask |= 1 << b.t.NumBr
		}
		b.t.NumBr++
		if in.IsBackwardBranch() {
			b.sinceBwd = 0
			b.t.Flags |= FlagContainsBackward
		}
	case isa.ClassCall:
		b.t.Flags |= FlagContainsCall
	case isa.ClassReturn:
		b.t.EndsInReturn = true
		return true
	case isa.ClassJumpInd:
		if in.IsCall() { // jalr: an indirect call
			b.t.Flags |= FlagContainsCall
		}
		b.t.EndsInIndirect = true
		return true
	case isa.ClassHalt:
		b.t.EndsInHalt = true
		return true
	}
	if b.k == b.cfg.MaxLen {
		return true
	}
	if b.sinceBwd > 0 && b.sinceBwd%b.cfg.AlignMod == 0 {
		return true
	}
	// Traces that have used all 16 branch-mask bits must end: the ID
	// could not distinguish further outcomes.
	if b.t.NumBr == 16 {
		return true
	}
	return false
}

// Finish seals the trace and returns it. succ is the address of the
// instruction that follows the trace (0 if unknown). Finish may be
// called on a partial trace (e.g. when the preconstructor abandons a
// region); an empty trace returns nil.
func (b *Builder) Finish(succ uint32) *Trace {
	if b.k == 0 {
		return nil
	}
	t := Trace{
		PCs:            append([]uint32(nil), b.pcs[:b.k]...),
		Insts:          append([]isa.Inst(nil), b.insts[:b.k]...),
		BrMask:         b.t.BrMask,
		NumBr:          b.t.NumBr,
		Flags:          b.t.Flags | b.cfg.lenClass(b.k),
		EndsInReturn:   b.t.EndsInReturn,
		EndsInIndirect: b.t.EndsInIndirect,
		EndsInHalt:     b.t.EndsInHalt,
		Succ:           succ,
	}
	return &t
}

// lenClass returns the length-class flag bits for an n-instruction trace
// under this selection configuration.
func (c SelectConfig) lenClass(n int) Flags {
	var f Flags
	if n == c.MaxLen {
		f |= FlagFullLength
	}
	if n <= c.AlignMod {
		f |= FlagShort
	}
	return f
}

// Seal finalizes the in-progress trace in place and returns a pointer
// to the Builder's internal Trace, avoiding the copy Finish makes. The
// returned trace is valid only until the next Append or Reset; callers
// that retain it must Clone it first. An empty trace returns nil.
func (b *Builder) Seal(succ uint32) *Trace {
	if b.k == 0 {
		return nil
	}
	b.t.PCs = b.pcs[:b.k:b.k]
	b.t.Insts = b.insts[:b.k:b.k]
	b.t.Succ = succ
	b.t.Flags |= b.cfg.lenClass(b.k)
	return &b.t
}

// Clone returns a deep copy of the trace that is safe to retain. The
// copy is unmanaged: intern bookkeeping does not transfer. Retaining a
// borrowed trace through a Store (Intern) is cheaper when one is
// available — interning recycles slab storage and dedupes against
// resident traces instead of allocating.
func (t *Trace) Clone() *Trace {
	c := *t
	c.PCs = append([]uint32(nil), t.PCs...)
	c.Insts = append([]isa.Inst(nil), t.Insts...)
	c.store, c.refs, c.chunk, c.limboIdx, c.hash = nil, 0, 0, 0, 0
	return &c
}

// ContainsCall reports whether any instruction in the trace is a call;
// the next-trace predictor's return history stack keys off this. The
// predicate is precomputed at seal time (FlagContainsCall), so the query
// is a bit test, not an instruction scan.
func (t *Trace) ContainsCall() bool { return t.Flags&FlagContainsCall != 0 }
