// Package bpred implements the slow-path branch prediction hardware: a
// bimodal predictor (a table of 2-bit saturating counters indexed by
// branch address, after J. E. Smith 1981), a return address stack, and a
// last-target buffer for indirect jumps.
//
// The bimodal counters do double duty in this design, exactly as in the
// paper: the slow-path fetch unit uses them to predict branches, and the
// preconstruction engine reads them to decide which branches are
// "strongly biased" and may be followed in one direction only (§2.1).
package bpred

import (
	"fmt"

	"tracepre/internal/isa"
)

// Counter thresholds for the 2-bit saturating counters. Values 0..3;
// >= 2 predicts taken. 0 and 3 are the "strong" states used by the
// preconstruction biased-branch heuristic.
const (
	counterMax   = 3
	takenAt      = 2
	strongTaken  = 3
	strongNotTkn = 0
)

// Bimodal is a table of 2-bit saturating counters indexed by branch PC.
type Bimodal struct {
	table []uint8
	mask  uint32
}

// NewBimodal creates a predictor with the given number of entries, which
// must be a power of two.
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: entries %d not a power of two", entries)
	}
	t := make([]uint8, entries)
	// Initialize to weakly taken, a common hardware reset state that
	// avoids a cold bias toward not-taken for loop branches.
	for i := range t {
		t[i] = takenAt
	}
	return &Bimodal{table: t, mask: uint32(entries - 1)}, nil
}

func (b *Bimodal) idx(pc uint32) uint32 { return (pc / isa.WordSize) & b.mask }

// Peek returns the predicted direction for the branch at pc.
func (b *Bimodal) Peek(pc uint32) bool { return b.table[b.idx(pc)] >= takenAt }

// Bias reports the preconstruction view of the branch at pc: its
// predicted direction and whether the counter is in a strong state.
func (b *Bimodal) Bias(pc uint32) (taken, strong bool) {
	c := b.table[b.idx(pc)]
	return c >= takenAt, c == strongTaken || c == strongNotTkn
}

// Update trains the counter with the resolved direction.
func (b *Bimodal) Update(pc uint32, taken bool) {
	i := b.idx(pc)
	c := b.table[i]
	if taken {
		if c < counterMax {
			b.table[i] = c + 1
		}
	} else if c > 0 {
		b.table[i] = c - 1
	}
}

// RAS is a fixed-depth return address stack with wraparound overwrite
// (pushing onto a full stack discards the oldest entry, as real RAS
// hardware does).
type RAS struct {
	entries []uint32
	top     int // index of next push slot
	size    int // live entries, <= len(entries)
}

// NewRAS creates a return address stack of the given depth.
func NewRAS(depth int) (*RAS, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("bpred: RAS depth %d", depth)
	}
	return &RAS{entries: make([]uint32, depth)}, nil
}

// Push records a return address (on a call).
func (r *RAS) Push(addr uint32) {
	r.entries[r.top] = addr
	r.top = (r.top + 1) % len(r.entries)
	if r.size < len(r.entries) {
		r.size++
	}
}

// Pop predicts the target of a return. ok is false when the stack has
// underflowed, in which case the prediction is worthless.
func (r *RAS) Pop() (addr uint32, ok bool) {
	if r.size == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.size--
	return r.entries[r.top], true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.size }

// TargetBuffer predicts indirect-jump targets by remembering the last
// resolved target per (direct-mapped) table entry.
type TargetBuffer struct {
	pcs     []uint32
	targets []uint32
	mask    uint32
}

// NewTargetBuffer creates a buffer with entries slots (power of two).
func NewTargetBuffer(entries int) (*TargetBuffer, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: target buffer entries %d not a power of two", entries)
	}
	return &TargetBuffer{
		pcs:     make([]uint32, entries),
		targets: make([]uint32, entries),
		mask:    uint32(entries - 1),
	}, nil
}

// Predict returns the last seen target for the jump at pc, if any.
func (t *TargetBuffer) Predict(pc uint32) (uint32, bool) {
	i := (pc / isa.WordSize) & t.mask
	if t.pcs[i] != pc {
		return 0, false
	}
	return t.targets[i], true
}

// Update records the resolved target for the jump at pc.
func (t *TargetBuffer) Update(pc, target uint32) {
	i := (pc / isa.WordSize) & t.mask
	t.pcs[i] = pc
	t.targets[i] = target
}
