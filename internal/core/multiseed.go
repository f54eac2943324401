package core

import (
	"context"
	"fmt"

	"tracepre/internal/harness"
	"tracepre/internal/stats"
)

// SeedStats summarizes the iso-area preconstruction comparison for one
// benchmark across program-generator seeds: does the result depend on
// the particular synthetic program instance?
type SeedStats struct {
	Bench         string
	Seeds         int
	MeanReduction float64 // percent
	StdReduction  float64
	MinReduction  float64
	MaxReduction  float64
}

// MultiSeedResult holds the across-seeds study.
type MultiSeedResult struct {
	Rows   []SeedStats
	Budget uint64
}

// MultiSeed regenerates each benchmark with perturbed generator seeds
// and measures the 512-TC vs 256+256 miss-rate reduction for every
// instance. The paper's conclusion should be a property of the
// workload *class*, not of one sampled program. The seed axis of the
// matrix carries the perturbations; one recording per (benchmark,
// seed) serves both machine configurations via the keyed stream cache.
func MultiSeed(ctx context.Context, budget uint64, benches []string, seeds int, opts ...harness.Option) (*MultiSeedResult, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("core: MultiSeed needs >= 2 seeds, got %d", seeds)
	}
	deltas := make([]int64, seeds)
	for s := range deltas {
		deltas[s] = int64(s * 7919) // distinct program instances
	}
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "seeds", Benches: benches, Seeds: deltas, Budget: budget,
		Points: []harness.ConfigPoint{
			{Name: "base", Cfg: BaselineConfig(512)},
			{Name: "precon", Cfg: PreconConfig(256, 256)},
		},
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &MultiSeedResult{Budget: budget, Rows: make([]SeedStats, len(benches))}
	for bi, b := range benches {
		reductions := make([]float64, seeds)
		for si, d := range deltas {
			base, pre := g.MustCellSeed(b, d, "base"), g.MustCellSeed(b, d, "precon")
			reductions[si] = harness.ReductionPct(harness.TCMissPerKI, base, pre)
		}
		s := stats.Summarize(reductions)
		out.Rows[bi] = SeedStats{
			Bench: b, Seeds: seeds,
			MeanReduction: s.Mean, StdReduction: s.Std,
			MinReduction: s.Min, MaxReduction: s.Max,
		}
	}
	return out, nil
}

// TableSpecs renders the study.
func (r *MultiSeedResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("Across program seeds: iso-area miss reduction, 512 TC vs 256+256 (budget %d)", r.Budget),
		Headers: []string{"benchmark", "seeds", "mean %", "stddev", "min %", "max %"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Bench, row.Seeds, row.MeanReduction,
			row.StdReduction, row.MinReduction, row.MaxReduction})
	}
	return []harness.TableSpec{spec}
}
