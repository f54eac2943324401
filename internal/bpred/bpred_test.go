package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBimodalValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		if _, err := NewBimodal(n); err == nil {
			t.Errorf("NewBimodal(%d) succeeded", n)
		}
	}
	if _, err := NewBimodal(1024); err != nil {
		t.Errorf("NewBimodal(1024): %v", err)
	}
}

// newBimodal, newRAS and newTargetBuffer build a predictor, failing the
// test on a size error.
func newBimodal(t testing.TB, entries int) *Bimodal {
	t.Helper()
	b, err := NewBimodal(entries)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newRAS(t testing.TB, depth int) *RAS {
	t.Helper()
	r, err := NewRAS(depth)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newTargetBuffer(t testing.TB, entries int) *TargetBuffer {
	t.Helper()
	tb, err := NewTargetBuffer(entries)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBimodalTraining(t *testing.T) {
	b := newBimodal(t, 64)
	pc := uint32(0x100)
	// Initial state is weakly taken.
	if !b.Predict(pc) {
		t.Error("initial prediction not taken")
	}
	// Train not-taken twice: weak->not taken->strong not taken.
	b.Update(pc, false)
	b.Update(pc, false)
	if b.Predict(pc) {
		t.Error("prediction still taken after training not-taken")
	}
	taken, strong := b.Bias(pc)
	if taken || !strong {
		t.Errorf("Bias = taken=%v strong=%v, want strongly not-taken", taken, strong)
	}
	// Train taken three times: saturate at strong taken.
	for i := 0; i < 5; i++ {
		b.Update(pc, true)
	}
	taken, strong = b.Bias(pc)
	if !taken || !strong {
		t.Errorf("Bias = taken=%v strong=%v, want strongly taken", taken, strong)
	}
}

func TestBimodalWeakIsNotStrong(t *testing.T) {
	b := newBimodal(t, 64)
	pc := uint32(0x40)
	// Initial counter is weakly-taken: not strong.
	if _, strong := b.Bias(pc); strong {
		t.Error("initial weak state reported strong")
	}
	b.Update(pc, true) // now strong taken
	if _, strong := b.Bias(pc); !strong {
		t.Error("saturated state not reported strong")
	}
	b.Update(pc, false) // back to weak
	if _, strong := b.Bias(pc); strong {
		t.Error("weak state reported strong after decay")
	}
}

func TestBimodalStats(t *testing.T) {
	b := newBimodal(t, 64)
	pc := uint32(0x10)
	b.Predict(pc)       // lookup 1 (weakly taken -> predicts taken)
	b.Update(pc, false) // mispredict; counter decays to not-taken
	b.Predict(pc)       // lookup 2 (predicts not taken)
	b.Update(pc, false) // correct
	b.Predict(pc)       // lookup 3 (strongly not taken)
	b.Update(pc, true)  // mispredict
	l, m := b.Stats()
	if l != 3 || m != 2 {
		t.Errorf("stats = %d lookups %d mispredicts, want 3, 2", l, m)
	}
	b.Reset()
	if l, m = b.Stats(); l != 0 || m != 0 {
		t.Error("Reset did not clear stats")
	}
	if !b.Peek(pc) {
		t.Error("Reset did not restore weakly-taken")
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	b := newBimodal(t, 64)
	b.Peek(0)
	b.Bias(0)
	if l, _ := b.Stats(); l != 0 {
		t.Errorf("Peek/Bias counted lookups: %d", l)
	}
}

func TestBimodalAliasing(t *testing.T) {
	b := newBimodal(t, 4) // tiny: pcs 0 and 64 alias (4 entries x 4 bytes)
	b.Update(0, false)
	b.Update(0, false)
	if b.Peek(4 * 4) {
		t.Error("aliased entry not shared") // 16 maps to index 0 with mask 3... check
	}
}

func TestQuickBimodalSaturation(t *testing.T) {
	// Property: after >=2 consecutive updates in one direction, the
	// prediction matches that direction and becomes strong after >=3.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := newBimodal(t, 256)
		pc := uint32(r.Intn(1024)) * 4
		dir := r.Intn(2) == 0
		for i := 0; i < 3+r.Intn(5); i++ {
			b.Update(pc, dir)
		}
		taken, strong := b.Bias(pc)
		return taken == dir && strong
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRASBasic(t *testing.T) {
	r := newRAS(t, 4)
	if _, ok := r.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
	r.Push(10)
	r.Push(20)
	if r.Depth() != 2 {
		t.Errorf("depth = %d", r.Depth())
	}
	if a, ok := r.Pop(); !ok || a != 20 {
		t.Errorf("pop = %d,%v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 10 {
		t.Errorf("pop = %d,%v", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop after drain succeeded")
	}
}

func TestRASOverflowDiscardsOldest(t *testing.T) {
	r := newRAS(t, 2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // discards 1
	if a, _ := r.Pop(); a != 3 {
		t.Errorf("pop = %d, want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Errorf("pop = %d, want 2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("entry 1 should have been discarded")
	}
}

func TestRASReset(t *testing.T) {
	r := newRAS(t, 4)
	r.Push(1)
	r.Reset()
	if r.Depth() != 0 {
		t.Error("Reset did not empty")
	}
	if _, err := NewRAS(0); err == nil {
		t.Error("NewRAS(0) succeeded")
	}
}

func TestQuickRASLIFO(t *testing.T) {
	// Property: without overflow, RAS pops in exact LIFO order.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(16)
		ras := newRAS(t, depth)
		n := r.Intn(depth + 1)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = r.Uint32()
			ras.Push(vals[i])
		}
		for i := n - 1; i >= 0; i-- {
			got, ok := ras.Pop()
			if !ok || got != vals[i] {
				return false
			}
		}
		_, ok := ras.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTargetBuffer(t *testing.T) {
	tb := newTargetBuffer(t, 16)
	if _, ok := tb.Predict(0x100); ok {
		t.Error("cold predict succeeded")
	}
	tb.Update(0x100, 0x2000)
	if a, ok := tb.Predict(0x100); !ok || a != 0x2000 {
		t.Errorf("predict = 0x%x,%v", a, ok)
	}
	// A conflicting pc evicts.
	tb.Update(0x100+16*4, 0x3000)
	if _, ok := tb.Predict(0x100); ok {
		t.Error("conflicting entry not evicted")
	}
	tb.Reset()
	if a, ok := tb.Predict(0x100 + 16*4); ok {
		t.Errorf("after reset predict = 0x%x", a)
	}
	if _, err := NewTargetBuffer(5); err == nil {
		t.Error("NewTargetBuffer(5) succeeded")
	}
}

func BenchmarkBimodalPredictUpdate(b *testing.B) {
	p := newBimodal(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint32(i*4) & 0xFFFF
		t := p.Predict(pc)
		p.Update(pc, !t)
	}
}
