package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
	"tracepre/internal/stats"
)

func samplingTestMatrix(budget uint64) Matrix {
	return Matrix{
		Name:    "sampling-test",
		Benches: []string{"compress", "li"},
		Budget:  budget,
		Points: []ConfigPoint{
			{Name: "base", Cfg: pipeline.DefaultConfig()},
			{Name: "pb64", Cfg: pipeline.DefaultConfig().WithPrecon(64)},
		},
	}
}

func testPlan() sample.Plan {
	return sample.Plan{Detail: 2_000, Warm: 3_000, Skip: 18_000, WarmModel: true}
}

// TestSampledSweep pins the sampled sweep contract: every cell carries
// interval statistics, its Result is the interval aggregate, and the
// progress callback reports the same Done/Total sequence as a
// full-detail sweep — sampling changes what a cell computes, not how
// the sweep is scheduled or reported.
func TestSampledSweep(t *testing.T) {
	const budget = 100_000
	m := samplingTestMatrix(budget)
	plan := testPlan()

	var snaps []Progress
	g, err := Run(context.Background(), m,
		WithSampling(plan),
		WithWorkers(1),
		WithProgress(func(p Progress) { snaps = append(snaps, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(g.Cells))
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Sample == nil {
			t.Fatalf("%s/%s: no sample stats", c.Bench, c.Point.Name)
		}
		if got, want := len(c.Sample.Intervals), plan.Intervals(budget); got != want && got != want-1 {
			t.Errorf("%s/%s: %d intervals, want %d (or one fewer)", c.Bench, c.Point.Name, got, want)
		}
		if !reflect.DeepEqual(c.Result, c.Sample.Aggregate) {
			t.Errorf("%s/%s: Result is not the interval aggregate", c.Bench, c.Point.Name)
		}
		if ci := MetricCI(IPC, c); ci.Mean <= 0 || ci.N != len(c.Sample.Intervals) {
			t.Errorf("%s/%s: degenerate IPC CI %+v", c.Bench, c.Point.Name, ci)
		}
	}
	// Progress: one warm-up snapshot (Done 0) then one per cell, Total
	// fixed at 4 — identical shape to an unsampled sweep.
	if len(snaps) != 5 {
		t.Fatalf("%d progress snapshots, want 5", len(snaps))
	}
	for i, p := range snaps {
		if p.Total != 4 || p.Done != i {
			t.Errorf("snapshot %d = {Done %d Total %d}, want {%d 4}", i, p.Done, p.Total, i)
		}
	}
}

// TestSampledBroadcastMatchesPerCell runs a sampled matrix, whose
// groups share one decode and one segmentation, and requires every
// cell's interval statistics and aggregate to equal the same cell
// sampled alone through RunBenchmarkSampled.
func TestSampledBroadcastMatchesPerCell(t *testing.T) {
	const budget = 100_000
	m := samplingTestMatrix(budget)
	plan := testPlan()

	g, err := Run(context.Background(), m, WithSampling(plan))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		alone, err := RunBenchmarkSampled(c.Bench, c.Seed, c.Point.Cfg, budget, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Sample.Intervals, alone.Intervals) {
			t.Errorf("%s/%s: grid and lone-cell interval stats differ", c.Bench, c.Point.Name)
		}
		if !reflect.DeepEqual(c.Result, alone.Aggregate) {
			t.Errorf("%s/%s: grid and lone-cell aggregates differ", c.Bench, c.Point.Name)
		}
	}
}

// TestGridIndependentOfWorkers asserts results do not depend on the
// fan-out: full-detail and sampled grids come out identical under one
// worker and under four.
func TestGridIndependentOfWorkers(t *testing.T) {
	m := samplingTestMatrix(60_000)
	m.Seeds = []int64{0, 1}
	for _, plan := range []*sample.Plan{nil, {Detail: 2_000, Warm: 3_000, Skip: 8_000, WarmModel: true}} {
		run := func(workers int) *Grid {
			opts := []Option{WithWorkers(workers)}
			if plan != nil {
				opts = append(opts, WithSampling(*plan))
			}
			g, err := Run(context.Background(), m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		one, four := run(1), run(4)
		for i := range one.Cells {
			a, b := &one.Cells[i], &four.Cells[i]
			if !reflect.DeepEqual(a.Result, b.Result) {
				t.Errorf("sampled=%v %s/%d/%s: Result differs between 1 and 4 workers",
					plan != nil, a.Bench, a.Seed, a.Point.Name)
			}
			if plan != nil && !reflect.DeepEqual(a.Sample.Intervals, b.Sample.Intervals) {
				t.Errorf("%s/%d/%s: interval stats differ between 1 and 4 workers",
					a.Bench, a.Seed, a.Point.Name)
			}
		}
	}
}

// TestSampledRawSkipBroadcast covers the WarmModel=false group path:
// fast-forward stretches are raw-skipped (no segmentation) and the
// shared segmenter restarts at each warm boundary.
func TestSampledRawSkipBroadcast(t *testing.T) {
	const budget = 100_000
	m := samplingTestMatrix(budget)
	plan := testPlan()
	plan.WarmModel = false

	g, err := Run(context.Background(), m, WithSampling(plan))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Sample.FFInstrs == 0 || len(c.Sample.Intervals) == 0 {
			t.Errorf("%s/%s: raw-skip run captured nothing: %+v", c.Bench, c.Point.Name, c.Sample)
		}
	}
}

func TestContextWithSampling(t *testing.T) {
	const budget = 50_000
	m := Matrix{Name: "ctx-sampling", Benches: []string{"compress"}, Budget: budget,
		Points: []ConfigPoint{{Name: "base", Cfg: pipeline.DefaultConfig()}}}
	ctx := ContextWithSampling(context.Background(), testPlan())
	g, err := Run(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if g.MustCell("compress", "base").Sample == nil {
		t.Fatal("context-carried plan was not applied")
	}
}

func TestSampledErrorPct(t *testing.T) {
	full := &Cell{Result: pipeline.Result{Instructions: 1000, Cycles: 500}}    // IPC 2
	sampled := &Cell{Result: pipeline.Result{Instructions: 1000, Cycles: 525}} // IPC ~1.9048
	got := SampledErrorPct(IPC, full, sampled)
	if got < 4.7 || got > 4.8 {
		t.Errorf("SampledErrorPct = %v, want ~4.76", got)
	}
	zero := &Cell{}
	if SampledErrorPct(IPC, zero, zero) != 0 {
		t.Errorf("zero-over-zero must be 0")
	}
}

// TestRenderCITables pins the ±half-width cell rendering across all
// three renderers: stats.CI cells format as "mean ±half" in ASCII and
// CSV and as a {mean, half, n} object in JSON.
func TestRenderCITables(t *testing.T) {
	specs := []TableSpec{{
		Title:   "sampled",
		Headers: []string{"bench", "ipc"},
		Rows: [][]any{
			{"gcc", stats.CI{Mean: 1.2345, Half: 0.056, N: 9}},
			{"go", stats.CI{Mean: 2.5, Half: 0, N: 1}},
		},
	}}

	ascii := RenderASCII(specs)
	wantASCII := "" +
		"sampled\n" +
		"bench  ipc        \n" +
		"------------------\n" +
		"gcc    1.23 ±0.06 \n" +
		"go     2.50 ±0.00 \n"
	if ascii != wantASCII {
		t.Errorf("ASCII rendering changed:\n got %q\nwant %q", ascii, wantASCII)
	}

	csv := RenderCSV(specs)
	wantCSV := "" +
		"# sampled\n" +
		"bench,ipc\n" +
		"gcc,1.23 ±0.06\n" +
		"go,2.50 ±0.00\n"
	if csv != wantCSV {
		t.Errorf("CSV rendering changed:\n got %q\nwant %q", csv, wantCSV)
	}

	js, err := RenderJSON(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Mean": 1.2345`, `"Half": 0.056`, `"N": 9`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON rendering missing %s:\n%s", want, js)
		}
	}
}
