package core

import (
	"context"
	"testing"

	"tracepre/internal/pipeline"
)

// result runs one benchmark in full detail, failing the test on error.
func result(t *testing.T, bench string, cfg pipeline.Config, budget uint64) pipeline.Result {
	t.Helper()
	c, err := RunBenchmark(context.Background(), bench, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	return c.Result
}

// TestWorkingSetOrdering: the paper's benchmark characterization must
// hold end to end: gcc/go/vortex stress the trace cache, compress and
// ijpeg do not.
func TestWorkingSetOrdering(t *testing.T) {
	miss := map[string]float64{}
	for _, b := range []string{"gcc", "go", "vortex", "compress", "ijpeg"} {
		miss[b] = result(t, b, BaselineConfig(256), SmallBudget).TCMissPerKI()
	}
	for _, big := range []string{"gcc", "go", "vortex"} {
		for _, small := range []string{"compress", "ijpeg"} {
			if miss[big] < 10*miss[small] {
				t.Errorf("%s (%.2f) not >> %s (%.2f)", big, miss[big], small, miss[small])
			}
		}
	}
}

// TestPreconNeverHurtsAtSameTC: adding preconstruction buffers to an
// unchanged trace cache must not increase the miss rate on any
// benchmark (the buffers only add supply).
func TestPreconNeverHurtsAtSameTC(t *testing.T) {
	for _, b := range Benchmarks() {
		base := result(t, b, BaselineConfig(128), SmallBudget)
		pre := result(t, b, PreconConfig(128, 128), SmallBudget)
		// Allow a hair of slack: promoted traces perturb trace-cache
		// LRU order, which can cost the odd conflict miss.
		if pre.TCMissPerKI() > base.TCMissPerKI()*1.02+0.05 {
			t.Errorf("%s: precon increased misses %.3f -> %.3f",
				b, base.TCMissPerKI(), pre.TCMissPerKI())
		}
	}
}

// TestExperimentDeterminism: a full experiment run twice produces
// byte-identical tables, including under the concurrent runner.
func TestExperimentDeterminism(t *testing.T) {
	run := func() string {
		r, err := Figure5(context.Background(), SmallBudget, []string{"li", "m88ksim"})
		if err != nil {
			t.Fatal(err)
		}
		return render(r)
	}
	if run() != run() {
		t.Error("Figure 5 not deterministic across runs")
	}
}

// TestTimingConsistency: full timing must agree with the frontend-only
// model on instruction supply metrics (the frontend is shared).
func TestTimingConsistency(t *testing.T) {
	fast := result(t, "perl", PreconConfig(128, 128), SmallBudget)
	full := result(t, "perl", TimingConfig(PreconConfig(128, 128), false), SmallBudget)
	if fast.Instructions != full.Instructions || fast.Traces != full.Traces {
		t.Errorf("instruction accounting differs: %d/%d vs %d/%d",
			fast.Instructions, fast.Traces, full.Instructions, full.Traces)
	}
	// The engine's idle-cycle grants differ between models, so supply
	// counts may diverge slightly — but not wildly.
	ratio := float64(full.TCMisses+1) / float64(fast.TCMisses+1)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("miss counts diverge: %d vs %d", fast.TCMisses, full.TCMisses)
	}
	if full.Cycles == 0 || fast.Cycles == 0 {
		t.Error("cycles not charged")
	}
}

// TestSpeedupsPositiveOnLargeBenches: at a modest budget, both headline
// mechanisms speed up the frontend-bound benchmarks.
func TestSpeedupsPositiveOnLargeBenches(t *testing.T) {
	r, err := Figure8(context.Background(), 500_000, []string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.PreconPct <= 0 {
		t.Errorf("precon speedup %.2f%% <= 0", row.PreconPct)
	}
	if row.CombinedPct <= row.PreconPct {
		t.Errorf("combined %.2f%% not above precon alone %.2f%%", row.CombinedPct, row.PreconPct)
	}
}
