package core

import (
	"context"
	"fmt"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
)

// SensitivityRow records the iso-area preconstruction comparison (512
// TC baseline vs 256 TC + 256 PB) under one model-parameter variant.
type SensitivityRow struct {
	Variant      string
	Bench        string
	BaseMissKI   float64
	PreconMissKI float64
	ReductionPct float64
}

// SensitivityResult holds the model-robustness study.
type SensitivityResult struct {
	Rows   []SensitivityRow
	Budget uint64
}

// sensitivityVariants perturb the simulator parameters the headline
// result could plausibly depend on. The reproduction's conclusion —
// spending storage on preconstruction buffers beats spending it on
// trace cache — should hold across all of them.
func sensitivityVariants() []struct {
	name string
	mut  func(*pipeline.Config)
} {
	return []struct {
		name string
		mut  func(*pipeline.Config)
	}{
		{"default model", nil},
		{"direct-mapped trace storage", func(c *pipeline.Config) {
			c.TraceCache.Assoc = 1
			c.Buffers.Assoc = 1
		}},
		{"4-way trace storage", func(c *pipeline.Config) {
			c.TraceCache.Assoc = 4
			c.Buffers.Assoc = 4
		}},
		{"slow L2 (20 cycles)", func(c *pipeline.Config) { c.L2Lat = 20 }},
		{"fast L2 (5 cycles)", func(c *pipeline.Config) { c.L2Lat = 5 }},
		{"narrow slow path (2/cycle)", func(c *pipeline.Config) { c.SlowFetchWidth = 2 }},
		{"wide slow path (8/cycle)", func(c *pipeline.Config) { c.SlowFetchWidth = 8 }},
		{"cheap mispredicts (2 cycles)", func(c *pipeline.Config) { c.MispredictPenalty = 2 }},
		{"dear mispredicts (10 cycles)", func(c *pipeline.Config) { c.MispredictPenalty = 10 }},
		{"slow drain (IPC 1.5)", func(c *pipeline.Config) { c.FrontendIPC = 1.5 }},
		{"fast drain (IPC 4)", func(c *pipeline.Config) { c.FrontendIPC = 4 }},
		{"small i-cache (16 KB)", func(c *pipeline.Config) { c.ICacheBytes = 16 * 1024 }},
		// §2.2 claims the alignment quantum also limits unique traces,
		// helping even the baseline; these vary it for both machines.
		{"alignment quantum 2", func(c *pipeline.Config) { c.Select.AlignMod = 2 }},
		{"alignment quantum 8", func(c *pipeline.Config) { c.Select.AlignMod = 8 }},
		{"no alignment quantum", func(c *pipeline.Config) { c.Select.AlignMod = 16 }},
	}
}

// Sensitivity measures the headline iso-area comparison under each
// model-parameter variant.
func Sensitivity(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*SensitivityResult, error) {
	variants := sensitivityVariants()
	var pts []harness.ConfigPoint
	for _, v := range variants {
		base, pre := BaselineConfig(512), PreconConfig(256, 256)
		if v.mut != nil {
			v.mut(&base)
			v.mut(&pre)
		}
		pts = append(pts,
			harness.ConfigPoint{Name: v.name + "/base", Cfg: base},
			harness.ConfigPoint{Name: v.name + "/precon", Cfg: pre})
	}
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "sensitivity", Benches: benches, Budget: budget, Points: pts,
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &SensitivityResult{Budget: budget}
	for _, v := range variants {
		for _, b := range benches {
			base, pre := g.MustCell(b, v.name+"/base"), g.MustCell(b, v.name+"/precon")
			out.Rows = append(out.Rows, SensitivityRow{
				Variant: v.name, Bench: b,
				BaseMissKI:   harness.TCMissPerKI.Of(base.Result),
				PreconMissKI: harness.TCMissPerKI.Of(pre.Result),
				ReductionPct: harness.ReductionPct(harness.TCMissPerKI, base, pre),
			})
		}
	}
	return out, nil
}

// TableSpecs renders the study, with the verdict line as the table's
// footer.
func (r *SensitivityResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("Sensitivity: iso-area comparison (512 TC vs 256+256) across model parameters (budget %d)", r.Budget),
		Headers: []string{"variant", "benchmark", "512 TC miss/KI", "256+256 miss/KI", "reduction %"},
		Footer:  "CONCLUSION HOLDS under every variant\n",
	}
	if !r.HoldsEverywhere() {
		spec.Footer = "WARNING: conclusion reverses under some variant\n"
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Variant, row.Bench, row.BaseMissKI,
			row.PreconMissKI, row.ReductionPct})
	}
	return []harness.TableSpec{spec}
}

// HoldsEverywhere reports whether preconstruction won under every
// variant (used by tests and the experiment summary).
func (r *SensitivityResult) HoldsEverywhere() bool {
	for _, row := range r.Rows {
		if row.ReductionPct <= 0 {
			return false
		}
	}
	return true
}
