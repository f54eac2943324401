package frontend

import (
	"fmt"

	"tracepre/internal/bpred"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
)

// SlowTables is the slow path's trained branch state: the bimodal
// counters and the indirect target buffer, which the preconstruction
// engine reads too. Both learn from the committed stream alone, so
// frontends fed the same demanded traces — the members of a sweep group
// — would train identical copies; one SlowTables serves them all
// (Config.Slow). The return address stack, which only a frontend's own
// slow-path builds move, stays per frontend.
//
// Frontends sharing tables must be fed in lockstep, as with
// tpred.Tables: every member consumes trace n before any member starts
// trace n+1. Each then reads the tables in the state private ones would
// hold. A trace supplied in detail is read before it trains — by
// Supply's slow path and by the engine's walk in Retire — so the first
// member to retire trace n records its branch and indirect-jump outcomes,
// and the first member to start trace n+1 applies them. A fast-forward
// trace trains before SupplyFast steps the engine, so the first member
// to reach it trains at once. A member out of lockstep, or one running a
// trace in detail that another fast-forwarded, panics.
type SlowTables struct {
	bim *bpred.Bimodal
	itb *bpred.TargetBuffer

	n        uint64      // traces the tables have trained on
	recorded bool        // pending holds trace n's outcomes
	pending  [16]outcome // a trace holds at most 16 instructions
	npending int
}

// outcome is one resolved conditional branch or indirect jump.
type outcome struct {
	pc       uint32
	target   uint32 // an indirect jump's target
	taken    bool   // a branch's direction
	indirect bool
}

// NewSlowTables builds the slow path's predictor tables at their fixed
// sizes.
func NewSlowTables() (*SlowTables, error) {
	bim, err := bpred.NewBimodal(BimodalEntries)
	if err != nil {
		return nil, err
	}
	itb, err := bpred.NewTargetBuffer(TargetEntries)
	if err != nil {
		return nil, err
	}
	return &SlowTables{bim: bim, itb: itb}, nil
}

// sync brings the tables to the state a member starting trace i in
// detail reads: trained through trace i-1.
func (t *SlowTables) sync(i uint64) {
	if t.recorded && i == t.n+1 {
		for _, o := range t.pending[:t.npending] {
			t.update(o)
		}
		t.n, t.recorded = i, false
	}
	if t.n != i {
		panic(fmt.Sprintf("frontend: member at trace %d, slow-path tables at trace %d: frontends sharing them must be fed in lockstep", i, t.n))
	}
}

// record keeps the outcomes of the detailed trace the member synced to,
// dyns, for the first member to start the next trace, unless a member
// that retired this trace already did.
func (t *SlowTables) record(dyns []emulator.Dyn) {
	if t.recorded {
		return
	}
	t.npending = 0
	for k := range dyns {
		if o, ok := resolved(&dyns[k]); ok {
			t.pending[t.npending] = o
			t.npending++
		}
	}
	t.recorded = true
}

// train trains the tables with fast-forward trace i at once, unless a
// member that reached trace i already did.
func (t *SlowTables) train(i uint64, dyns []emulator.Dyn) {
	if t.n == i+1 && !t.recorded {
		return
	}
	t.sync(i)
	if t.recorded {
		panic(fmt.Sprintf("frontend: trace %d retired in detail by one member and fast-forwarded by another: frontends sharing slow-path tables must share phases", i))
	}
	for k := range dyns {
		if o, ok := resolved(&dyns[k]); ok {
			t.update(o)
		}
	}
	t.n = i + 1
}

func (t *SlowTables) update(o outcome) {
	if o.indirect {
		t.itb.Update(o.pc, o.target)
	} else {
		t.bim.Update(o.pc, o.taken)
	}
}

// resolved returns what a committed instruction teaches the tables.
func resolved(d *emulator.Dyn) (outcome, bool) {
	switch d.Inst.Classify() {
	case isa.ClassBranch:
		return outcome{pc: d.PC, taken: d.Taken}, true
	case isa.ClassJumpInd:
		return outcome{pc: d.PC, target: d.NextPC, indirect: true}, true
	}
	return outcome{}, false
}
