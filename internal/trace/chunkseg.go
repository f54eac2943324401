package trace

import "tracepre/internal/emulator"

// ChunkSegmenter applies trace selection to pre-decoded Dyn chunks: it
// slices the chunks emulator.ChunkedReplayer decodes from a recorded
// stream into the exact trace sequence the machine demands. Every run
// segments through one: pipeline.Simulator.RunStream for a lone
// simulator, and the harness's group driver once for a whole group of
// simulators that share a SelectConfig.
//
// The selection rules are Builder's: Feed appends each instruction to
// an embedded Builder and seals the trace it completes. What the
// segmenter adds is the chunk handling, which the equivalence tests and
// FuzzChunkSegmenter pin at adversarial chunk boundaries.
//
// Feed is zero-copy in the common case: a trace that lies entirely
// within one chunk borrows the chunk's own Dyn backing. Only a trace
// spanning a chunk boundary is staged through the segmenter's scratch
// array. Returned traces and dyn slices are borrowed either way —
// valid only until the next Feed call (and only while the source chunk
// is live); clone the trace if it must escape.
type ChunkSegmenter struct {
	b       Builder
	dyns    [16]emulator.Dyn // staging for chunk-spanning traces only
	carried int              // instructions of the partial trace staged from earlier chunks
}

// NewChunkSegmenter returns a segmenter with empty partial state. Any
// SelectConfig works; nothing about chunk decode constrains the
// consumer's trace shape.
func NewChunkSegmenter(cfg SelectConfig) *ChunkSegmenter {
	return &ChunkSegmenter{b: Builder{cfg: cfg}}
}

// Pending returns the number of instructions buffered in the unfinished
// trace (carried across Feed calls until it completes).
func (cs *ChunkSegmenter) Pending() int { return cs.carried }

// Reset drops the partial trace and rearms selection to begin at the
// next instruction fed — the resume-at-skip hook for sampled runs whose
// fast-forward phase skips a stream region without segmenting it: the
// pre-skip partial would otherwise be stitched onto instructions from
// an arbitrarily later point, yielding a trace no machine ever fetched.
// Selection restarts exactly as at stream start (fresh alignment
// counter), which is also how the live machine re-fetches after any
// redirect into unsegmented territory.
func (cs *ChunkSegmenter) Reset() { cs.carried = 0 }

// Feed consumes instructions from chunk until a trace completes or the
// chunk is exhausted. It returns the number of instructions consumed
// and, when a trace completed, the borrowed trace with its dyn slice;
// tr == nil means the whole chunk was consumed with a partial trace
// pending (resumed by the next Feed). Callers drain a chunk by calling
// Feed repeatedly on the unconsumed tail.
func (cs *ChunkSegmenter) Feed(chunk []emulator.Dyn) (used int, tr *Trace, dyns []emulator.Dyn) {
	b := &cs.b
	// Every Feed returns at a trace's end or with the partial trace
	// staged, so with nothing staged the next trace starts at chunk[0].
	if cs.carried == 0 {
		b.Reset()
	}
	for i := range chunk {
		d := &chunk[i]
		if !b.AppendClassified(d.PC, &d.Inst, d.Inst.Classify(), d.Taken) {
			continue
		}
		if cs.carried == 0 {
			dyns = chunk[:i+1]
		} else {
			k := b.Len()
			copy(cs.dyns[cs.carried:k], chunk[:i+1])
			cs.carried = 0
			dyns = cs.dyns[:k]
		}
		return i + 1, b.Seal(d.NextPC), dyns
	}
	// Chunk exhausted mid-trace: stage the tail so the trace can resume
	// from the next chunk after this one's backing is recycled.
	copy(cs.dyns[cs.carried:], chunk)
	cs.carried = b.Len()
	return len(chunk), nil, nil
}
