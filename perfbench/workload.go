package main

import (
	"fmt"
	"slices"
	"strings"

	"tracepre/internal/core"
	"tracepre/internal/harness"
	"tracepre/internal/mem"
	"tracepre/internal/sample"
)

// workers is the fixed sweep fan-out of every untraced run.
const workers = 2

// workload is one fixed sweep the benchmark measures.
type workload struct {
	name    string
	benches []string
	// budget is the committed-instruction budget per cell.
	budget  uint64
	points  []harness.ConfigPoint
	sampled bool // run under sample.PlanForBudget(budget)
	// programs is how many generated programs per benchmark one run
	// sweeps: the run's seed and programs-1 seeds derived from it.
	programs int
	// refPoints name the points whose cells the sampled IPC error is
	// measured on (see ipcErrPct); nil means every point.
	refPoints []string
}

// workloads returns the benchmark's workloads in presentation order.
// BENCHMARK.json and README.md say why each is included. A single
// program's sweep time differs by up to ±20% from seed to seed, so
// each run sweeps many programs and the seed moves the average.
func workloads() []workload {
	return []workload{
		{
			name:     "fig5-pb",
			benches:  []string{"gcc", "go"},
			budget:   250_000,
			points:   figure5PBPoints(),
			programs: 12,
		},
		{
			name:     "fig8-l2",
			benches:  []string{"gcc", "vortex"},
			budget:   250_000,
			points:   figure8L2Points(),
			programs: 12,
		},
		{
			name:      "fig5-pb-sampled",
			benches:   []string{"gcc", "go"},
			budget:    6_000_000,
			points:    figure5PBPoints(),
			sampled:   true,
			programs:  4,
			refPoints: []string{"tc64/pb64", "tc256/pb256"},
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// figure5PBPoints is the 18-cell PB>0 grid of Figure 5: every (tc, pb)
// storage point with preconstruction on, within the paper's area range.
func figure5PBPoints() []harness.ConfigPoint {
	var pts []harness.ConfigPoint
	for _, pb := range core.Figure5PBSizes {
		if pb == 0 {
			continue
		}
		for _, tc := range core.Figure5TCSizes {
			if pb >= 256 && tc >= 1024 {
				continue
			}
			pts = append(pts, harness.ConfigPoint{
				Name: fmt.Sprintf("tc%d/pb%d", tc, pb),
				Cfg:  core.PreconConfig(tc, pb),
			})
		}
	}
	return pts
}

// figure8L2Points is Figure 8's four full-timing points behind the
// ext-memory 256 KiB / 8-MSHR modeled L2.
func figure8L2Points() []harness.ConfigPoint {
	l2 := mem.DefaultModeledL2()
	return []harness.ConfigPoint{
		{Name: "base", Cfg: core.TimingConfig(core.BaselineConfig(256), false).WithModeledL2(l2)},
		{Name: "precon", Cfg: core.TimingConfig(core.PreconConfig(128, 128), false).WithModeledL2(l2)},
		{Name: "preproc", Cfg: core.TimingConfig(core.BaselineConfig(256), true).WithModeledL2(l2)},
		{Name: "both", Cfg: core.TimingConfig(core.PreconConfig(128, 128), true).WithModeledL2(l2)},
	}
}

// seedStride separates the seeds one run derives from its seed, so the
// programs of nearby seeds never coincide.
const seedStride = 1_000_003

// seeds returns the generator-seed perturbations of one run: the seed
// itself (0 is the unperturbed profile) and programs-1 derived ones.
func (w workload) seeds(seed int64) []int64 {
	out := make([]int64, w.programs)
	for i := range out {
		out[i] = seed + int64(i)*seedStride
	}
	return out
}

// matrix declares the workload's sweep for one seed and budget.
func (w workload) matrix(seed int64, budget uint64) harness.Matrix {
	return harness.Matrix{Name: w.name, Benches: w.benches, Seeds: w.seeds(seed), Budget: budget, Points: w.points}
}

// referencePoints returns the points ipcErrPct reruns.
func (w workload) referencePoints() []harness.ConfigPoint {
	if w.refPoints == nil {
		return w.points
	}
	var pts []harness.ConfigPoint
	for _, p := range w.points {
		if slices.Contains(w.refPoints, p.Name) {
			pts = append(pts, p)
		}
	}
	return pts
}

// plan returns the sampling plan, or nil for a full-detail workload.
func (w workload) plan(budget uint64) *sample.Plan {
	if !w.sampled {
		return nil
	}
	p := sample.PlanForBudget(budget)
	return &p
}

// options returns the harness options of an untraced run.
func (w workload) options(budget uint64, nworkers int, progress harness.ProgressFunc) []harness.Option {
	opts := []harness.Option{harness.WithWorkers(nworkers)}
	if progress != nil {
		opts = append(opts, harness.WithProgress(progress))
	}
	if p := w.plan(budget); p != nil {
		opts = append(opts, harness.WithSampling(*p))
	}
	return opts
}
