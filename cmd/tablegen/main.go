// Command tablegen regenerates the paper's evaluation artifacts: Figure
// 5 (trace cache miss rates), Tables 1-3 (instruction cache supply),
// Figure 6 (speedup from preconstruction), Figure 8 (the extended
// pipeline combining preconstruction with preprocessing), and the
// extension/ablation studies.
//
// Usage:
//
//	tablegen -exp all -n 2000000
//	tablegen -exp fig5 -bench gcc,go
//	tablegen -exp all -format csv -out results/
//	tablegen -exp fig6 -progress
//	tablegen -exp fig5 -n 200000000 -sample
//	tablegen -list
//
// -format selects the renderer: table (aligned ASCII, the default),
// csv, or json (structured typed results). -out writes one file per
// experiment into a directory instead of stdout. -progress reports
// sweep completion (cells done/total, elapsed, ETA) on stderr.
// Interrupting a sweep (SIGINT/SIGTERM) cancels in-flight experiments
// promptly.
//
// -sample runs every sweep cell under statistically sampled simulation
// (internal/sample): long fast-forward stretches between short
// full-detail measurement units, with table cells rendered as
// `value ±halfwidth` 95% confidence intervals. The schedule derives
// from the budget; -sample-detail, -sample-warm and -sample-target-ci
// override the unit length, detailed warm-up length, and adaptive
// stopping target. This is what makes paper-scale 200M-instruction
// sweeps affordable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"tracepre/internal/core"
	"tracepre/internal/harness"
	"tracepre/internal/sample"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment id (fig5, tables123, fig6, fig8, ext-*, ablation-*, all)")
		n            = flag.Uint64("n", core.DefaultBudget, "committed instructions per run")
		bench        = flag.String("bench", "", "comma-separated benchmarks (default: the experiment's own set)")
		list         = flag.Bool("list", false, "list experiments and exit")
		format       = flag.String("format", "table", "output format: table, csv or json")
		asJSON       = flag.Bool("json", false, "emit structured JSON (shorthand for -format json)")
		outDir       = flag.String("out", "", "write one file per experiment into this directory instead of stdout")
		progress     = flag.Bool("progress", false, "report sweep progress (done/total, elapsed, ETA) on stderr")
		jobs         = flag.Int("j", 0, "max concurrent sweep cells (0: one per CPU)")
		doSample     = flag.Bool("sample", false, "statistically sampled sweeps: fast-forward between short full-detail measurement units, cells become value ±95% CI")
		sampleDetail = flag.Int64("sample-detail", -1, "measurement unit length in instructions (-1: derive from budget)")
		sampleWarm   = flag.Int64("sample-warm", -1, "detailed warm-up instructions before each unit (-1: derive from budget)")
		sampleCI     = flag.Float64("sample-target-ci", 0, "stop each cell early once its IPC 95% CI relative half-width reaches this (0: run the whole budget)")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *asJSON {
		*format = "json"
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "tablegen: unknown -format %q (want table, csv or json)\n", *format)
		os.Exit(2)
	}

	var benches []string
	if *bench != "" {
		benches = strings.Split(*bench, ",")
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}

	if *n == 0 {
		fail(errors.New("-n 0: nothing to simulate"))
	}
	var plan sample.Plan
	if *doSample {
		var err error
		if plan, err = sample.PlanFromFlags(*n, *sampleDetail, *sampleWarm, *sampleCI); err != nil {
			fail(err)
		}
	}

	// A signal cancels the context; the sweep engine stops dispatching
	// cells and every in-flight experiment returns promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *jobs < 0 {
		fail(fmt.Errorf("-j %d: worker count cannot be negative", *jobs))
	}
	if *jobs > 0 {
		ctx = harness.ContextWithWorkers(ctx, *jobs)
	}
	if *doSample {
		ctx = harness.ContextWithSampling(ctx, plan)
	}

	if *progress {
		ctx = harness.ContextWithProgress(ctx, func(p harness.Progress) {
			eta := ""
			if p.ETA > 0 {
				eta = fmt.Sprintf("  eta %s", p.ETA.Round(100_000_000)) // 0.1s
			}
			fmt.Fprintf(os.Stderr, "\rtablegen: %d/%d cells  %s elapsed%s ",
				p.Done, p.Total, p.Elapsed.Round(100_000_000), eta)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // materialize final heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	exps := []core.Experiment{}
	if *exp == "all" {
		exps = core.Experiments()
	} else {
		e, err := core.ExperimentByID(*exp)
		if err != nil {
			fail(err)
		}
		exps = append(exps, e)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	// JSON to stdout aggregates every experiment into one document;
	// everything else emits per experiment (to stdout or its own file).
	if *format == "json" && *outDir == "" {
		out := map[string]any{}
		for _, e := range exps {
			v, err := e.Structured(ctx, *n, benches)
			if err != nil {
				fail(interrupted(ctx, err))
			}
			out[e.ID] = v
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}

	for _, e := range exps {
		data, err := render(ctx, e, *format, *n, benches)
		if err != nil {
			fail(interrupted(ctx, err))
		}
		if *outDir != "" {
			name := filepath.Join(*outDir, e.ID+"."+ext(*format))
			if err := os.WriteFile(name, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", name)
			continue
		}
		if *format == "table" {
			fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		}
		os.Stdout.Write(data)
		fmt.Println()
	}
}

// render produces one experiment's output in the chosen format.
func render(ctx context.Context, e core.Experiment, format string, n uint64, benches []string) ([]byte, error) {
	if format == "json" {
		v, err := e.Structured(ctx, n, benches)
		if err != nil {
			return nil, err
		}
		return json.MarshalIndent(v, "", "  ")
	}
	specs, err := e.Tables(ctx, n, benches)
	if err != nil {
		return nil, err
	}
	if format == "csv" {
		return []byte(harness.RenderCSV(specs)), nil
	}
	return []byte(harness.RenderASCII(specs)), nil
}

// ext maps a format to its file extension for -out.
func ext(format string) string {
	if format == "table" {
		return "txt"
	}
	return format
}

// interrupted rewords cancellation errors for the terminal.
func interrupted(ctx context.Context, err error) error {
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return errors.New("interrupted")
	}
	return err
}
