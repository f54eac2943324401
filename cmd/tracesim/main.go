// Command tracesim runs one benchmark through the trace processor model
// and prints the instruction-supply and (optionally) timing statistics.
//
// Usage:
//
//	tracesim -bench gcc -tc 256 -pb 256 -n 2000000
//	tracesim -bench vortex -tc 128 -pb 128 -timing -preproc
//	tracesim -bench gcc -tc 256 -pb 256 -n 200000000 -sample
//
// -sample switches to statistically sampled simulation: long
// fast-forward stretches between short full-detail measurement units,
// reporting each metric as a mean with a Student-t 95% confidence
// interval (see internal/sample). The schedule is derived from the
// budget; -sample-detail, -sample-warm and -sample-target-ci override
// the unit length, detailed warm-up length, and adaptive stopping
// target.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"tracepre/internal/core"
	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
	"tracepre/internal/stats"
)

func main() {
	var (
		bench        = flag.String("bench", "gcc", "benchmark name (see -list)")
		tc           = flag.Int("tc", 512, "trace cache entries")
		pb           = flag.Int("pb", 0, "preconstruction buffer entries (0 disables)")
		n            = flag.Uint64("n", core.DefaultBudget, "committed instructions to simulate")
		timing       = flag.Bool("timing", false, "enable the full backend timing model")
		preproc      = flag.Bool("preproc", false, "enable fill-unit preprocessing (implies -timing)")
		timeline     = flag.Uint64("timeline", 0, "print a miss-rate sparkline, one point per this many instructions")
		doSample     = flag.Bool("sample", false, "statistically sampled simulation: fast-forward between short full-detail measurement units")
		sampleDetail = flag.Int64("sample-detail", -1, "measurement unit length in instructions (-1: derive from budget)")
		sampleWarm   = flag.Int64("sample-warm", -1, "detailed warm-up instructions before each unit (-1: derive from budget)")
		sampleCI     = flag.Float64("sample-target-ci", 0, "stop early once the IPC 95% CI relative half-width reaches this (0: run the whole budget)")
		list         = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}

	if *list {
		for _, b := range core.Benchmarks() {
			fmt.Println(b)
		}
		return
	}
	if *n == 0 {
		fail(errors.New("-n 0: nothing to simulate"))
	}

	var opts []harness.Option
	if *doSample {
		plan, err := sample.PlanFromFlags(*n, *sampleDetail, *sampleWarm, *sampleCI)
		if err != nil {
			fail(err)
		}
		opts = append(opts, harness.WithSampling(plan))
	}

	cfg := core.PreconConfig(*tc, *pb) // -pb 0 is the baseline; Validate rejects a negative count
	if *timing || *preproc {
		cfg = core.TimingConfig(cfg, *preproc)
	}
	cfg.WindowInstrs = *timeline

	c, err := core.RunBenchmark(context.Background(), *bench, cfg, *n, opts...)
	if err != nil {
		fail(err)
	}
	res, sampled := c.Result, c.Sample

	t := stats.NewTable(fmt.Sprintf("tracesim %s: TC=%d PB=%d budget=%d", *bench, *tc, *pb, *n),
		"metric", "value")
	t.AddRow("instructions", res.Instructions)
	t.AddRow("traces", res.Traces)
	t.AddRow("trace cache hits", res.TCHits)
	t.AddRow("supplied by preconstruction", res.PreconSupplied)
	t.AddRow("trace cache misses", res.TCMisses)
	t.AddRow("trace misses / 1000 instr", res.TCMissPerKI())
	t.AddRow("instr from i-cache / 1000 instr", res.ICacheInstrsPerKI())
	t.AddRow("i-cache misses / 1000 instr", res.ICacheMissesPerKI())
	t.AddRow("instr from i-cache misses / 1000 instr", res.InstrsFromICMissesPerKI())
	t.AddRow("next-trace predictor accuracy", fmt.Sprintf("%.3f", res.Pred.Accuracy()))
	if *timing || *preproc {
		t.AddRow("cycles", res.Cycles)
		t.AddRow("IPC", fmt.Sprintf("%.3f", res.IPC()))
		t.AddRow("loads", res.Loads)
		t.AddRow("d-cache misses", res.DCacheMisses)
	}
	fmt.Print(t.String())

	if sampled != nil {
		p := sampled.Plan
		t3 := stats.NewTable(
			fmt.Sprintf("sampled: detail %d / warm %d / skip %d, %d intervals",
				p.Detail, p.Warm, p.Skip, len(sampled.Intervals)),
			"metric", "mean ±95% CI")
		t3.AddRow("IPC", sampled.IPCCI())
		t3.AddRow("trace misses / 1000 instr", sampled.MetricCI(pipeline.Result.TCMissPerKI))
		t3.AddRow("instr from i-cache / 1000 instr", sampled.MetricCI(pipeline.Result.ICacheInstrsPerKI))
		t3.AddRow("i-cache misses / 1000 instr", sampled.MetricCI(pipeline.Result.ICacheMissesPerKI))
		t3.AddRow("streamed instructions", sampled.Streamed)
		t3.AddRow("measured instructions", sampled.MeasuredInstrs)
		t3.AddRow("warm instructions", sampled.WarmInstrs)
		t3.AddRow("fast-forwarded instructions", sampled.FFInstrs)
		fmt.Print(t3.String())
	}

	if len(res.Windows) > 0 {
		series := make([]float64, len(res.Windows))
		peak := 0.0
		for i, w := range res.Windows {
			series[i] = w.MissPerKI()
			if series[i] > peak {
				peak = series[i]
			}
		}
		fmt.Printf("\nmiss/KI timeline (%d instr/window, peak %.1f):\n%s\n",
			*timeline, peak, stats.Sparkline(series))
	}

	if *pb > 0 {
		p := res.Precon
		t2 := stats.NewTable("preconstruction engine", "metric", "value")
		t2.AddRow("regions activated", p.RegionsActivated)
		t2.AddRow("regions caught up", p.RegionsCaughtUp)
		t2.AddRow("regions exhausted (prefetch cache)", p.RegionsExhausted)
		t2.AddRow("regions bounded (buffers)", p.RegionsBounded)
		t2.AddRow("traces built", p.TracesBuilt)
		t2.AddRow("duplicates suppressed", p.TracesDuplicate)
		t2.AddRow("lines fetched", p.LinesFetched)
		t2.AddRow("engine i-cache misses", p.ICacheMisses)
		fmt.Print(t2.String())
	}
}
