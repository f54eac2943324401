package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"tracepre/internal/harness"
	"tracepre/internal/sample"
)

// runSample is what one untraced run measured: one process, one
// harness.Run of the whole workload on the fixed worker count.
type runSample struct {
	SetupS     float64  `json:"setup_s"`
	WallS      float64  `json:"wall_s"`
	PeakRSSMiB float64  `json:"peak_rss_mib"`
	Allocs     uint64   `json:"allocs"`
	KInstr     float64  `json:"kinstr"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Problems   []string `json:"problems,omitempty"`
	Digest     string   `json:"digest"`
}

// measureUntraced runs the workload once through harness.Run. The
// progress callback's Done == 0 call, made once stream warming ends,
// splits set-up (image generation and stream recording) from the
// timed sweep. Peak RSS is read right after the sweep.
func measureUntraced(ctx context.Context, w workload, seed int64, budget uint64) (runSample, error) {
	var (
		split   time.Time
		allocs0 uint64
	)
	progress := func(p harness.Progress) {
		if p.Done == 0 && split.IsZero() {
			split = time.Now()
			allocs0 = heapAllocs()
		}
	}
	start := time.Now()
	g, err := harness.Run(ctx, w.matrix(seed, budget), w.options(budget, workers, progress)...)
	end := time.Now()
	allocs1 := heapAllocs()
	rss, rssErr := peakRSSMiB()
	if err != nil {
		return runSample{}, err
	}
	if rssErr != nil {
		return runSample{}, rssErr
	}
	if split.IsZero() {
		return runSample{}, fmt.Errorf("%s: sweep reported no set-up split", w.name)
	}
	t := checkGrid(g, budget)
	return runSample{
		SetupS:     split.Sub(start).Seconds(),
		WallS:      end.Sub(split).Seconds(),
		PeakRSSMiB: rss,
		Allocs:     allocs1 - allocs0,
		KInstr:     float64(len(g.Cells)) * float64(budget) / 1000,
		Attempted:  t.attempted,
		Failed:     t.failed,
		Problems:   t.problems,
		Digest:     digest(g),
	}, nil
}

// ipcErrPct measures how far sampling moves IPC on the workload's
// reference cells: it runs them in full detail and sampled under
// sample.PlanForBudget, and returns the median |sampled - full| / full
// IPC over them, in percent. The reference cells are the reference
// points of the unperturbed program (seed 0) of each bench, whatever
// the run's seed: the error of one seed's programs differs by a factor
// of two to four from seed to seed, so only fixed programs give a
// figure that repeats. It changes only when what the simulator
// computes changes. It runs after every measured run has ended, so it
// costs wall_s and peak_rss_mib nothing.
func ipcErrPct(ctx context.Context, w workload, budget uint64) (float64, tally, error) {
	ref := w.matrix(0, budget)
	ref.Name += "-reference"
	ref.Seeds = []int64{0}
	ref.Points = w.referencePoints()
	full, err := harness.Run(ctx, ref, harness.WithWorkers(workers))
	if err != nil {
		return 0, tally{}, err
	}
	sampled, err := harness.Run(ctx, ref, harness.WithWorkers(workers), harness.WithSampling(sample.PlanForBudget(budget)))
	if err != nil {
		return 0, tally{}, err
	}
	chk := checkGrid(full, budget)
	chk.merge(checkGrid(sampled, budget))
	errs := make([]float64, len(full.Cells))
	for i := range full.Cells {
		errs[i] = harness.SampledErrorPct(harness.IPC, &full.Cells[i], &sampled.Cells[i])
	}
	return median(errs), chk, nil
}

// heapAllocs reads the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB returns the process's maximum resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
