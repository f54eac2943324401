package trace

import (
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
)

// ChunkSegmenter applies trace selection to pre-decoded Dyn chunks: it
// slices the chunks emulator.ChunkedReplayer decodes from a recorded
// stream into the exact trace sequence the machine demands. Every run
// segments through one: pipeline.Simulator.RunStream for a lone
// simulator, and the harness's group driver once for a whole group of
// simulators that share a SelectConfig.
//
// The termination rules here restate Builder.Append instruction for
// instruction; they are inlined rather than delegated because neither
// Append nor a shared step function inlines, which costs about half
// again the segmentation time. The equivalence tests and
// FuzzChunkSegmenter drive both over the same streams at adversarial
// chunk boundaries and require identical traces, so any divergence is
// a test failure, not a silent skew.
//
// Feed is zero-copy in the common case: a trace that lies entirely
// within one chunk borrows the chunk's own Dyn backing. Only a trace
// spanning a chunk boundary is staged through the segmenter's scratch
// arrays. Returned traces and dyn slices are borrowed either way —
// valid only until the next Feed call (and only while the source chunk
// is live); clone the trace if it must escape.
type ChunkSegmenter struct {
	cfg      SelectConfig
	t        Trace
	pcs      [16]uint32 // selection caps MaxLen at 16 (SelectConfig.Validate)
	insts    [16]isa.Inst
	dyns     [16]emulator.Dyn // staging for chunk-spanning traces only
	k        int              // instructions accumulated in the current partial trace
	carried  int              // of k, how many were staged from earlier chunks
	sinceBwd int
}

// NewChunkSegmenter returns a segmenter with empty partial state. Any
// SelectConfig works; nothing about chunk decode constrains the
// consumer's trace shape.
func NewChunkSegmenter(cfg SelectConfig) *ChunkSegmenter {
	return &ChunkSegmenter{cfg: cfg}
}

// Pending returns the number of instructions buffered in the unfinished
// trace (carried across Feed calls until it completes).
func (cs *ChunkSegmenter) Pending() int { return cs.k }

// Reset drops the partial trace and rearms selection to begin at the
// next instruction fed — the resume-at-skip hook for sampled runs whose
// fast-forward phase skips a stream region without segmenting it: the
// pre-skip partial would otherwise be stitched onto instructions from
// an arbitrarily later point, yielding a trace no machine ever fetched.
// Selection restarts exactly as at stream start (fresh alignment
// counter), which is also how the live machine re-fetches after any
// redirect into unsegmented territory.
func (cs *ChunkSegmenter) Reset() {
	cs.k = 0
	cs.carried = 0
	cs.sinceBwd = -1
}

// Feed consumes instructions from chunk until a trace completes or the
// chunk is exhausted. It returns the number of instructions consumed
// and, when a trace completed, the borrowed trace with its dyn slice;
// tr == nil means the whole chunk was consumed with a partial trace
// pending (resumed by the next Feed). Callers drain a chunk by calling
// Feed repeatedly on the unconsumed tail.
func (cs *ChunkSegmenter) Feed(chunk []emulator.Dyn) (used int, tr *Trace, dyns []emulator.Dyn) {
	t := &cs.t
	max := cs.cfg.MaxLen
	start := 0 // chunk index where the current trace's run of instructions began
	for i := range chunk {
		if cs.k == 0 {
			*t = Trace{}
			cs.sinceBwd = -1
			start = i
		}
		d := &chunk[i]
		cs.pcs[cs.k] = d.PC
		cs.insts[cs.k] = d.Inst
		cs.k++
		if cs.sinceBwd >= 0 {
			cs.sinceBwd++
		}
		done := false
		switch d.Inst.Classify() {
		case isa.ClassBranch:
			if d.Taken {
				t.BrMask |= 1 << t.NumBr
			}
			t.NumBr++
			if d.Inst.IsBackwardBranch() {
				cs.sinceBwd = 0
				t.Flags |= FlagContainsBackward
			}
		case isa.ClassCall:
			t.Flags |= FlagContainsCall
		case isa.ClassReturn:
			t.EndsInReturn = true
			done = true
		case isa.ClassJumpInd:
			if d.Inst.IsCall() { // jalr: an indirect call
				t.Flags |= FlagContainsCall
			}
			t.EndsInIndirect = true
			done = true
		case isa.ClassHalt:
			t.EndsInHalt = true
			done = true
		}
		if !done {
			if cs.k == max {
				done = true
			} else if cs.sinceBwd > 0 && cs.sinceBwd%cs.cfg.AlignMod == 0 {
				done = true
			} else if t.NumBr == 16 {
				done = true
			}
		}
		if done {
			k := cs.k
			cs.k = 0
			t.PCs = cs.pcs[:k]
			t.Insts = cs.insts[:k]
			t.Succ = d.NextPC
			t.Flags |= cs.cfg.lenClass(k)
			if cs.carried == 0 {
				dyns = chunk[start : i+1]
			} else {
				copy(cs.dyns[cs.carried:k], chunk[:i+1])
				cs.carried = 0
				dyns = cs.dyns[:k]
			}
			return i + 1, t, dyns
		}
	}
	// Chunk exhausted mid-trace: stage the tail so the trace can resume
	// from the next chunk after this one's backing is recycled.
	if cs.k > cs.carried {
		copy(cs.dyns[cs.carried:cs.k], chunk[start:])
		cs.carried = cs.k
	}
	return len(chunk), nil, nil
}
