// Package core is the library facade: it wires the synthetic SPECint95
// workloads to the trace processor model and exposes the paper's
// experiments (Figure 5, Tables 1-3, Figure 6, Figure 8) as runnable
// functions returning typed results that render as tables.
//
// Quick start:
//
//	c, err := core.RunBenchmark(ctx, "gcc", core.BaselineConfig(512), 2_000_000)
//	fmt.Println(c.Result.TCMissPerKI())
//
// or run a whole experiment:
//
//	out, err := core.Figure5(ctx, core.SmallBudget, []string{"gcc", "go"})
//	fmt.Print(harness.RenderASCII(out.TableSpecs()))
//
// Every experiment is a declarative harness.Matrix — see
// internal/harness for the sweep engine (fan-out, stream reuse,
// cancellation, progress) and the Metric/renderer model. Each takes
// the harness.Options (workers, progress, sampling plan) its sweeps
// run under.
package core

import (
	"context"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/program"
	"tracepre/internal/workload"
)

// Budgets used by the harness; the paper runs 200M instructions per
// benchmark, which the simulator supports but the bundled experiments
// default below for practical turnaround.
const (
	// SmallBudget suits unit tests and quick sanity runs.
	SmallBudget uint64 = 200_000
	// DefaultBudget is used by cmd/tablegen unless overridden.
	DefaultBudget uint64 = 2_000_000
)

// BaselineConfig returns the paper's processor with a trace cache of the
// given entry count and no preconstruction.
func BaselineConfig(tcEntries int) pipeline.Config {
	return pipeline.DefaultConfig().WithTraceCache(tcEntries)
}

// PreconConfig returns the processor with preconstruction: tcEntries of
// trace cache plus pbEntries of preconstruction buffers.
func PreconConfig(tcEntries, pbEntries int) pipeline.Config {
	return pipeline.DefaultConfig().WithTraceCache(tcEntries).WithPrecon(pbEntries)
}

// TimingConfig enables the full backend timing model on top of cfg, with
// preprocessing optionally enabled.
func TimingConfig(cfg pipeline.Config, preprocess bool) pipeline.Config {
	cfg.FullTiming = true
	cfg.PreprocEnabled = preprocess
	return cfg
}

// Benchmarks returns the SPECint95 benchmark names in presentation
// order.
func Benchmarks() []string { return workload.Names() }

// TimingBenchmarks returns the benchmarks of Figures 6 and 8.
func TimingBenchmarks() []string { return []string{"gcc", "go", "perl", "vortex"} }

// RunBenchmark simulates a benchmark under the configuration for the
// given committed-instruction budget: a one-cell harness sweep, so opts
// apply as they do to any sweep (WithSampling runs it sampled). The
// benchmark's dynamic stream is recorded once into the shared stream
// cache, and this and every later run of the same (benchmark, budget)
// replays it instead of re-emulating.
func RunBenchmark(ctx context.Context, name string, cfg pipeline.Config, budget uint64, opts ...harness.Option) (*harness.Cell, error) {
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "RunBenchmark", Benches: []string{name}, Budget: budget,
		Points: []harness.ConfigPoint{{Name: "cell", Cfg: cfg}},
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &g.Cells[0], nil
}

// RunImage simulates an arbitrary image (for custom workloads). Ad-hoc
// images have no cache identity, so RunImage records the image's stream
// for this run alone; use RunBenchmark (or a harness sweep) to share
// streams.
func RunImage(im *program.Image, cfg pipeline.Config, budget uint64) (pipeline.Result, error) {
	sim, err := pipeline.New(im, cfg)
	if err != nil {
		return pipeline.Result{}, err
	}
	return sim.Run(budget)
}
