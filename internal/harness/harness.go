// Package harness is the declarative sweep engine behind every
// experiment: a Matrix names the axes of a sweep — benchmarks,
// generator-seed perturbations, an instruction budget, and named
// simulator configurations — and Run executes the full cross product
// with bounded parallelism, shared stream recordings, per-cell error
// propagation, context cancellation and progress callbacks. The
// resulting Grid holds one pipeline.Result per cell; named Metric
// extractors and the TableSpec renderers (ASCII, CSV) turn a Grid into
// the paper's tables. Run's Options are the only way to set a sweep's
// workers, progress callback and sampling plan.
//
// An experiment is then a ~20-line declaration:
//
//	g, err := harness.Run(ctx, harness.Matrix{
//		Name:    "iso-area",
//		Benches: []string{"gcc", "go"},
//		Budget:  2_000_000,
//		Points: []harness.ConfigPoint{
//			{Name: "base", Cfg: pipeline.DefaultConfig().WithTraceCache(512)},
//			{Name: "precon", Cfg: pipeline.DefaultConfig().WithTraceCache(256).WithPrecon(256)},
//		},
//	})
//	miss := harness.TCMissPerKI.Of(g.Cell("gcc", "precon").Result)
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

// ConfigPoint is one named simulator configuration of a sweep.
type ConfigPoint struct {
	Name string
	Cfg  pipeline.Config
}

// Matrix declares a sweep: the cross product of Benches x Seeds x
// Points, each cell simulated for Budget committed instructions.
type Matrix struct {
	// Name labels the sweep in errors and progress output.
	Name string
	// Benches are workload benchmark names (workload.Names() order is
	// conventional but not required).
	Benches []string
	// Seeds are generator-seed perturbations applied to each
	// benchmark's profile; nil or empty means the unperturbed profile
	// (a single 0 seed).
	Seeds []int64
	// Budget is the committed-instruction budget per cell.
	Budget uint64
	// Points are the simulator configurations to sweep.
	Points []ConfigPoint
}

// seeds returns the seed axis, defaulting to the unperturbed profile.
func (m Matrix) seeds() []int64 {
	if len(m.Seeds) == 0 {
		return []int64{0}
	}
	return m.Seeds
}

// validate rejects malformed matrices before any simulation starts.
func (m Matrix) validate() error {
	if len(m.Benches) == 0 {
		return fmt.Errorf("harness: matrix %q has no benchmarks", m.Name)
	}
	if len(m.Points) == 0 {
		return fmt.Errorf("harness: matrix %q has no config points", m.Name)
	}
	if m.Budget == 0 {
		return fmt.Errorf("harness: matrix %q has zero budget", m.Name)
	}
	seen := map[string]bool{}
	for _, p := range m.Points {
		if p.Name == "" {
			return fmt.Errorf("harness: matrix %q has an unnamed config point", m.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("harness: matrix %q repeats config point %q", m.Name, p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// Cell is one executed point of the sweep.
type Cell struct {
	Bench  string
	Seed   int64
	Point  ConfigPoint
	Result pipeline.Result

	// Sample carries the per-interval statistics when the sweep ran
	// under WithSampling; nil for full-detail runs. A sampled cell's
	// Result is the aggregate over its measurement units, so metric
	// extractors work on it unchanged.
	Sample *sample.Stats
}

// cellKey indexes a Grid.
type cellKey struct {
	bench string
	seed  int64
	point string
}

// Grid holds every cell of an executed Matrix, in deterministic
// bench-major order (bench, then seed, then point declaration order).
type Grid struct {
	Matrix Matrix
	Cells  []Cell

	index map[cellKey]int
}

// Cell returns the unperturbed-seed cell for (bench, point), or nil if
// the grid has no such cell.
func (g *Grid) Cell(bench, point string) *Cell { return g.CellSeed(bench, 0, point) }

// CellSeed returns the cell for (bench, seed, point), or nil.
func (g *Grid) CellSeed(bench string, seed int64, point string) *Cell {
	if i, ok := g.index[cellKey{bench, seed, point}]; ok {
		return &g.Cells[i]
	}
	return nil
}

// MustCell is Cell but panics on a missing cell — for experiment
// definitions folding a grid they just declared, where absence is a
// programming error, not a runtime condition.
func (g *Grid) MustCell(bench, point string) *Cell {
	return g.MustCellSeed(bench, 0, point)
}

// MustCellSeed is CellSeed but panics on a missing cell.
func (g *Grid) MustCellSeed(bench string, seed int64, point string) *Cell {
	c := g.CellSeed(bench, seed, point)
	if c == nil {
		panic(fmt.Sprintf("harness: matrix %q has no cell (%s, %d, %s)",
			g.Matrix.Name, bench, seed, point))
	}
	return c
}

// Progress is a snapshot of a running sweep.
type Progress struct {
	Done    int
	Total   int
	Elapsed time.Duration
	// ETA estimates the remaining wall time from the mean cell rate so
	// far; zero until the first cell completes.
	ETA time.Duration
}

// ProgressFunc receives progress snapshots. Calls are serialized.
type ProgressFunc func(Progress)

// Option configures Run.
type Option func(*Settings)

// Settings are a sweep's run-time settings: how it reports progress,
// how wide it fans out and whether its cells run sampled. Progress and
// Workers never change a cell's result.
type Settings struct {
	// Progress receives progress snapshots; nil reports nothing.
	Progress ProgressFunc
	// Workers bounds the fan-out; <= 0 means one worker per CPU.
	Workers int
	// Sampling runs every cell under the plan; nil runs full detail.
	Sampling *sample.Plan
}

// WithProgress registers a progress callback: one call after stream
// warming (Done == 0) and one per completed cell.
func WithProgress(fn ProgressFunc) Option {
	return func(o *Settings) { o.Progress = fn }
}

// WithWorkers bounds the sweep fan-out to n concurrent cells (and n
// concurrent stream recordings during warming). n <= 0 restores the
// default, one worker per CPU (runtime.GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(o *Settings) { o.Workers = n }
}

// Run executes the matrix: it records (or reuses) each benchmark's
// dynamic stream, fans the cell groups out over one worker per CPU, and
// collects every pipeline.Result into a Grid. A sampling plan must fit
// at least two measurement units into the budget. The first cell error
// cancels nothing but wins the returned error (remaining cells still
// run); cancelling ctx stops the sweep within one decoded chunk per
// running group and returns an error wrapping ctx.Err().
func Run(ctx context.Context, m Matrix, opts ...Option) (*Grid, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	var o Settings
	for _, opt := range opts {
		opt(&o)
	}
	if o.Sampling != nil {
		if err := o.Sampling.Validate(); err != nil {
			return nil, fmt.Errorf("harness: matrix %q: %w", m.Name, err)
		}
		// A Student-t interval needs two measurement units. The check
		// reads Intervals as a floor: it asks for two whole periods,
		// although a jittered run can capture one unit more.
		if n := o.Sampling.Intervals(m.Budget); n < 2 {
			return nil, fmt.Errorf("harness: matrix %q: budget %d fits %d of the sampling plan's %d-instruction periods, each one measurement unit; an interval needs 2",
				m.Name, m.Budget, n, o.Sampling.Period())
		}
	}

	g := &Grid{Matrix: m, index: map[cellKey]int{}}
	for _, b := range m.Benches {
		for _, s := range m.seeds() {
			for _, p := range m.Points {
				key := cellKey{b, s, p.Name}
				if _, dup := g.index[key]; dup {
					continue // repeated benchmark: first cell wins
				}
				g.index[key] = len(g.Cells)
				g.Cells = append(g.Cells, Cell{Bench: b, Seed: s, Point: p})
			}
		}
	}

	start := time.Now()
	var (
		progressMu sync.Mutex
		done       int
	)
	report := func() {
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		p := Progress{Done: done, Total: len(g.Cells), Elapsed: time.Since(start)}
		if done > 0 && done < p.Total {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(done) * float64(p.Total-done))
		}
		o.Progress(p)
	}

	sts, err := warmStreams(ctx, m, o.Workers)
	if err != nil {
		return nil, err
	}
	report()

	// Fan out over groups rather than individual cells: the cells of a
	// group share one decode and one segmentation of their stream and
	// step in lockstep (runGroup). Workers bound concurrent groups.
	groups := runGroups(g)
	err = forEach(ctx, len(groups), o.Workers, func(gi int) error {
		c := groups[gi][0]
		if err := runGroup(ctx, sts[imageKey{c.Bench, c.Seed}], m.Budget, groups[gi], o.Sampling); err != nil {
			return fmt.Errorf("harness: %s: %w", m.Name, err)
		}
		for range groups[gi] {
			progressMu.Lock()
			done++
			progressMu.Unlock()
			report()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// forEach executes n independent jobs with bounded parallelism
// (workers <= 0: one worker per CPU), preserving job indices so callers
// keep results ordered. The first job error wins but all dispatched
// jobs complete; cancelling ctx stops dispatch promptly and ctx.Err()
// is returned when no job failed first.
func forEach(ctx context.Context, n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := job(i); err != nil {
					setErr(err)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		setErr(err)
	}
	return firstErr
}
