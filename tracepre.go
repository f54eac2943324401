// Package tracepre is a from-scratch reproduction of "Trace
// Preconstruction" (Jacobson and Smith, ISCA 2000): a trace-processor
// simulation stack with a trace cache, a path-based next-trace
// predictor, the trace preconstruction engine that is the paper's
// contribution, fill-unit preprocessing, and a harness that regenerates
// every table and figure of the paper's evaluation.
//
// This package is the public API. It re-exports the stable surface of
// the internal packages:
//
//	im, _  := tracepre.Workload("gcc")
//	res, _ := tracepre.RunImage(im, tracepre.PreconConfig(256, 256), 2_000_000)
//	fmt.Println(res.TCMissPerKI())
//
// Custom programs can be written in the bundled assembly dialect:
//
//	im, _ := tracepre.Assemble(".org 0x1000\nmain: addi r1, r0, 3\n...")
//
// The paper's experiments (Figure 5, Tables 1-3, Figures 6 and 8) plus
// the extension and ablation studies are available through Experiments
// and ExperimentByID; an Experiment's Run executes it at a chosen
// budget over chosen benchmarks and returns a typed result whose
// TableSpecs render as the paper's tables.
package tracepre

import (
	"context"

	"tracepre/internal/asm"
	"tracepre/internal/core"
	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/program"
	"tracepre/internal/workload"
)

// Core simulator types.
type (
	// Config is the full simulator configuration (trace cache,
	// preconstruction buffers, caches, predictors, timing model).
	Config = pipeline.Config
	// Result aggregates a run's measurements; its methods compute the
	// paper's metrics (TCMissPerKI, IPC, ...).
	Result = pipeline.Result
	// Image is a loaded program: code, data, entry point, symbols.
	Image = program.Image
	// Profile parameterizes the synthetic benchmark generator.
	Profile = workload.Profile
	// Experiment is one reproducible artifact from the paper (or one of
	// the extension studies).
	Experiment = core.Experiment
)

// Instruction budgets used by the harness.
const (
	// SmallBudget suits tests and quick sanity runs.
	SmallBudget = core.SmallBudget
	// DefaultBudget is what cmd/tablegen uses unless overridden.
	DefaultBudget = core.DefaultBudget
)

// Benchmarks returns the synthetic SPECint95 benchmark names.
func Benchmarks() []string { return core.Benchmarks() }

// BenchmarkProfiles returns the eight benchmark generator profiles.
func BenchmarkProfiles() []Profile { return workload.SPECint95() }

// Workload returns the (cached) program image for a named benchmark.
func Workload(name string) (*Image, error) { return harness.ImageSeed(name, 0) }

// GenerateWorkload builds a program from a (possibly customized)
// generator profile.
func GenerateWorkload(p Profile) (*Image, error) { return workload.Generate(p) }

// Assemble builds a program image from assembly text (see internal/asm
// for the dialect).
func Assemble(src string) (*Image, error) { return asm.Assemble(src) }

// BaselineConfig returns the paper's processor with a trace cache of
// the given entry count and no preconstruction.
func BaselineConfig(tcEntries int) Config { return core.BaselineConfig(tcEntries) }

// PreconConfig returns the processor with tcEntries of trace cache plus
// pbEntries of preconstruction buffers.
func PreconConfig(tcEntries, pbEntries int) Config {
	return core.PreconConfig(tcEntries, pbEntries)
}

// TimingConfig enables the full backend timing model, optionally with
// fill-unit preprocessing.
func TimingConfig(cfg Config, preprocess bool) Config {
	return core.TimingConfig(cfg, preprocess)
}

// RunBenchmark simulates a named benchmark under the configuration for
// the given committed-instruction budget.
func RunBenchmark(name string, cfg Config, budget uint64) (Result, error) {
	c, err := core.RunBenchmark(context.Background(), name, cfg, budget)
	if err != nil {
		return Result{}, err
	}
	return c.Result, nil
}

// RunImage simulates an arbitrary program image.
func RunImage(im *Image, cfg Config, budget uint64) (Result, error) {
	return core.RunImage(im, cfg, budget)
}

// Experiments lists every reproducible artifact: the paper's tables and
// figures followed by the extension and ablation studies.
func Experiments() []Experiment { return core.Experiments() }

// ExperimentByID finds an experiment (fig5, tables123, fig6, fig8,
// ext-adaptive, ablation-precon, ablation-tpred, sensitivity, seeds).
func ExperimentByID(id string) (Experiment, error) { return core.ExperimentByID(id) }
