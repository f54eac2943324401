package tpred

import (
	"math/rand"
	"testing"

	"tracepre/internal/isa"
	"tracepre/internal/trace"
)

// mkTrace builds a trivial trace starting at start. Flags control the
// RHS-relevant character.
func mkTrace(start uint32, call, ret bool) *trace.Trace {
	insts := []isa.Inst{{Op: isa.OpAdd, Rd: 1, Ra: 1, Rb: 1}}
	if call {
		insts = append(insts, isa.Inst{Op: isa.OpJal, Target: 0x9000})
	}
	if ret {
		insts = append(insts, isa.Inst{Op: isa.OpJr, Ra: isa.RegLink})
	}
	pcs := make([]uint32, len(insts))
	for i := range pcs {
		pcs[i] = start + uint32(i*4)
	}
	// ContainsCall is a precomputed flag, so hand-built traces must set
	// it to match their contents (see trace.Trace.Flags).
	var flags trace.Flags
	if call {
		flags |= trace.FlagContainsCall
	}
	return &trace.Trace{PCs: pcs, Insts: insts, Flags: flags, EndsInReturn: ret}
}

// newPredictor builds a predictor over private tables of the full
// hybrid.
func newPredictor() *Predictor { return NewTables(Config{}).View() }

func TestColdNoPrediction(t *testing.T) {
	p := newPredictor()
	if _, ok := p.Predict(); ok {
		t.Error("cold predictor produced a prediction")
	}
	s := p.Stats()
	if s.Predictions != 1 || s.NoPredict != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestLearnsRepeatingSequence: after one pass over a repeating trace
// sequence, the predictor should predict the second pass correctly.
func TestLearnsRepeatingSequence(t *testing.T) {
	p := newPredictor()
	seq := []*trace.Trace{
		mkTrace(0x1000, false, false),
		mkTrace(0x2000, false, false),
		mkTrace(0x3000, false, false),
	}
	// Warm-up passes.
	for pass := 0; pass < 3; pass++ {
		for _, tr := range seq {
			p.Predict()
			p.Update(tr)
		}
	}
	// Measure a pass.
	correct := 0
	for _, tr := range seq {
		id, ok := p.Predict()
		if ok && id == tr.ID() {
			correct++
		}
		p.Update(tr)
	}
	if correct != len(seq) {
		t.Errorf("predicted %d/%d after warmup", correct, len(seq))
	}
	if p.Stats().Accuracy() == 0 {
		t.Error("accuracy = 0")
	}
}

// TestPathCorrelation: the same trace followed by different successors
// depending on the preceding path is predictable only with path history;
// verify the primary table disambiguates.
func TestPathCorrelation(t *testing.T) {
	p := newPredictor()
	a := mkTrace(0xA000, false, false)
	b := mkTrace(0xB000, false, false)
	x := mkTrace(0x1000, false, false)
	y := mkTrace(0x2000, false, false)
	z := mkTrace(0x3000, false, false)
	// Pattern: a,x -> y   and   b,x -> z, repeated.
	for pass := 0; pass < 8; pass++ {
		for _, tr := range []*trace.Trace{a, x, y, b, x, z} {
			p.Predict()
			p.Update(tr)
		}
	}
	// After a,x the next must be y.
	p.Predict()
	p.Update(a)
	p.Predict()
	p.Update(x)
	if id, ok := p.Predict(); !ok || id != y.ID() {
		t.Errorf("after a,x predicted %v (ok=%v), want %v", id, ok, y.ID())
	}
	p.Update(y)
	// After b,x the next must be z.
	p.Predict()
	p.Update(b)
	p.Predict()
	p.Update(x)
	if id, ok := p.Predict(); !ok || id != z.ID() {
		t.Errorf("after b,x predicted %v (ok=%v), want %v", id, ok, z.ID())
	}
}

// TestSecondaryFallback: a fresh path (unseen history) should still get a
// prediction from the secondary last-trace table once the pair has been
// seen under some other history.
func TestSecondaryFallback(t *testing.T) {
	p := newPredictor()
	x := mkTrace(0x1000, false, false)
	y := mkTrace(0x2000, false, false)
	fillers := []*trace.Trace{
		mkTrace(0x5000, false, false),
		mkTrace(0x6000, false, false),
		mkTrace(0x7000, false, false),
		mkTrace(0x8000, false, false),
	}
	// Teach x->y under varying histories so the secondary learns it.
	for i, f := range fillers {
		p.Predict()
		p.Update(f)
		p.Predict()
		p.Update(fillers[(i+1)%len(fillers)])
		p.Predict()
		p.Update(x)
		p.Predict()
		p.Update(y)
	}
	// Now produce a brand-new history ending in x.
	p.Predict()
	p.Update(mkTrace(0xF000, false, false))
	p.Predict()
	p.Update(x)
	id, ok := p.Predict()
	if !ok || id != y.ID() {
		t.Errorf("secondary fallback predicted %v (ok=%v), want %v", id, ok, y.ID())
	}
}

// TestRHSRestoresHistory: a call/return wrapping a variable-length callee
// must not destroy the caller-side correlation.
func TestRHSRestoresHistory(t *testing.T) {
	p := newPredictor()
	pre := mkTrace(0x1000, true, false) // caller trace containing the call
	c1 := mkTrace(0x9000, false, true)  // callee variant 1 (ends in return)
	c2 := mkTrace(0x9800, false, true)  // callee variant 2
	post := mkTrace(0x2000, false, false)

	// Train: pre, (c1|c2), post — post always follows, callee alternates.
	for pass := 0; pass < 10; pass++ {
		callee := c1
		if pass%2 == 1 {
			callee = c2
		}
		for _, tr := range []*trace.Trace{pre, callee, post} {
			p.Predict()
			p.Update(tr)
		}
	}
	// With the RHS, the history after either callee is the restored
	// pre-call history + callee id... measure: after pre,c1 the
	// predictor must say post.
	p.Predict()
	p.Update(pre)
	p.Predict()
	p.Update(c1)
	if id, ok := p.Predict(); !ok || id != post.ID() {
		t.Errorf("after return predicted %v (ok=%v), want %v", id, ok, post.ID())
	}
}

func TestUpdateTrainsReplacement(t *testing.T) {
	p := newPredictor()
	x := mkTrace(0x1000, false, false)
	y := mkTrace(0x2000, false, false)
	z := mkTrace(0x3000, false, false)
	// Teach x->y strongly, then switch to x->z and verify it flips.
	for i := 0; i < 6; i++ {
		p.Predict()
		p.Update(x)
		p.Predict()
		p.Update(y)
	}
	for i := 0; i < 8; i++ {
		p.Predict()
		p.Update(x)
		p.Predict()
		p.Update(z)
	}
	p.Predict()
	p.Update(x)
	if id, ok := p.Predict(); !ok || id != z.ID() {
		t.Errorf("after retraining predicted %v, want %v", id, z.ID())
	}
}

// lockstepSeq is a repeating trace sequence with some noise, calls and
// returns, long enough to warm both tables and the RHS.
func lockstepSeq() []*trace.Trace {
	kinds := []*trace.Trace{
		mkTrace(0x1000, true, false),
		mkTrace(0x2000, false, true),
		mkTrace(0x3000, false, false),
		mkTrace(0x4000, true, false),
		mkTrace(0x5000, false, true),
		mkTrace(0x6000, false, false),
	}
	rng := rand.New(rand.NewSource(3))
	seq := make([]*trace.Trace, 3000)
	for i := range seq {
		k := i % len(kinds)
		if rng.Intn(8) == 0 {
			k = rng.Intn(len(kinds))
		}
		seq[i] = kinds[k]
	}
	return seq
}

// TestSharedTablesMatchPrivate feeds two views over one set of tables
// and two predictors over private tables the same trace sequence, in
// lockstep. Each trace is either predicted and updated, as full detail
// does, or trained only, as fast-forward does, chosen per predictor;
// and which view reaches a trace first alternates. Every prediction
// and every counter of a view must equal its private twin's.
func TestSharedTablesMatchPrivate(t *testing.T) {
	tables := NewTables(Config{})
	shared := []*Predictor{tables.View(), tables.View()}
	private := []*Predictor{newPredictor(), newPredictor()}
	rng := rand.New(rand.NewSource(5))
	for n, tr := range lockstepSeq() {
		order := []int{0, 1}
		if n%2 == 1 {
			order = []int{1, 0}
		}
		for _, v := range order {
			if rng.Intn(4) == 0 {
				shared[v].Train(tr)
				private[v].Train(tr)
				continue
			}
			id, ok := shared[v].Predict()
			pid, pok := private[v].Predict()
			if id != pid || ok != pok {
				t.Fatalf("trace %d view %d: shared predicted (%v, %v), private (%v, %v)", n, v, id, ok, pid, pok)
			}
			shared[v].Update(tr)
			private[v].Update(tr)
		}
		for v := range shared {
			if s, p := shared[v].Stats(), private[v].Stats(); s != p {
				t.Fatalf("trace %d view %d: shared stats %+v, private %+v", n, v, s, p)
			}
		}
	}
	if s := shared[0].Stats(); s.Correct == 0 || s.FromPrimary == 0 || s.NoPredict == 0 {
		t.Errorf("sequence too easy or too hard to exercise every counter: %+v", s)
	}
}

// TestViewOutOfLockstepPanics: a view two traces behind its tables can
// no longer be served, and panics rather than predict from the wrong
// state. One trace behind is the lockstep norm.
func TestViewOutOfLockstepPanics(t *testing.T) {
	tables := NewTables(Config{})
	lead, lag := tables.View(), tables.View()
	x := mkTrace(0x1000, false, false)
	lead.Predict()
	lead.Update(x)
	lag.Predict() // one behind: served from the cached lookup
	lag.Update(x) // one behind: the tables already trained this trace
	lead.Predict()
	lead.Update(x)
	lead.Predict()
	lead.Update(x)
	for name, f := range map[string]func(){
		"Predict": func() { lag.Predict() },
		"Update":  func() { lag.Update(x) },
		"Train":   func() { lag.Train(x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s two traces behind the tables did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAccuracyEmpty(t *testing.T) {
	var s Stats
	if s.Accuracy() != 0 {
		t.Error("accuracy of empty stats != 0")
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	p := newPredictor()
	seq := make([]*trace.Trace, 64)
	for i := range seq {
		seq[i] = mkTrace(uint32(0x1000+i*64), i%7 == 0, i%11 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict()
		p.Update(seq[i&63])
	}
}
