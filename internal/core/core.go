// Package core is the library facade: it wires the synthetic SPECint95
// workloads to the trace processor model and exposes the paper's
// experiments (Figure 5, Tables 1-3, Figure 6, Figure 8) as runnable
// functions returning both structured data and formatted tables.
//
// Quick start:
//
//	res, err := core.RunBenchmark("gcc", core.BaselineConfig(512), 2_000_000)
//	fmt.Println(res.TCMissPerKI())
//
// or run a whole experiment:
//
//	out, err := core.Figure5(core.SmallBudget, []string{"gcc", "go"})
//	fmt.Println(out.Table())
//
// Every experiment is a declarative harness.Matrix — see
// internal/harness for the sweep engine (fan-out, stream reuse,
// cancellation, progress) and the Metric/renderer model.
package core

import (
	"fmt"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/program"
	"tracepre/internal/sample"
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

// LargeWorkingSet lists the benchmarks the paper singles out for their
// instruction working sets (gcc, go, vortex); perl joins them in the
// timing figures.
func LargeWorkingSet() []string { return []string{"gcc", "go", "vortex"} }

// TimingBenchmarks returns the benchmarks of Figures 6 and 8.
func TimingBenchmarks() []string { return []string{"gcc", "go", "perl", "vortex"} }

// Image returns the (cached) program image for a benchmark. Images are
// immutable after generation and safe to share across simulators.
func Image(name string) (*program.Image, error) { return harness.Image(name) }

// RunBenchmark simulates a benchmark under the configuration for the
// given committed-instruction budget. The benchmark's dynamic stream is
// recorded once into the shared stream cache, and this and every later
// run of the same (benchmark, budget) replays it instead of
// re-emulating.
func RunBenchmark(name string, cfg pipeline.Config, budget uint64) (pipeline.Result, error) {
	res, err := harness.RunBenchmark(name, 0, cfg, budget)
	if err != nil {
		return pipeline.Result{}, fmt.Errorf("core: %s: %w", name, err)
	}
	return res, nil
}

// RunBenchmarkSampled simulates a benchmark under statistically sampled
// simulation: fast-forward between short full-detail measurement units
// per the plan, returning per-interval statistics with confidence
// intervals (see internal/sample).
func RunBenchmarkSampled(name string, cfg pipeline.Config, budget uint64, plan sample.Plan) (*sample.Stats, error) {
	st, err := harness.RunBenchmarkSampled(name, 0, cfg, budget, plan)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	return st, nil
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

// StreamCacheStats reports the cached stream count and encoded bytes.
func StreamCacheStats() (entries int, bytes int64) { return harness.StreamCacheStats() }

// ResetStreamCache drops every cached stream (tests and long-lived
// servers switching workloads).
func ResetStreamCache() { harness.ResetStreamCache() }
