package sample_test

// These tests run the sampling runner the way every sweep does:
// through the harness's group driver, which decodes and segments the
// recorded stream and feeds the runner (a lone cell is a group of one).

import (
	"math"
	"testing"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

func TestSampledRunInvariants(t *testing.T) {
	const budget = 200_000
	cfg := pipeline.DefaultConfig().WithPrecon(64)

	for _, warmModel := range []bool{true, false} {
		plan := sample.Plan{Detail: 5_000, Warm: 5_000, Skip: 20_000, WarmModel: warmModel}
		st, err := harness.RunBenchmarkSampled("gcc", 0, cfg, budget, plan)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Intervals(budget)
		// Trace-boundary jitter can push the final unit past the stream
		// end, dropping it — but never more than one.
		if n := len(st.Intervals); n != want && n != want-1 {
			t.Errorf("warmModel=%v: %d intervals, want %d (or one fewer)", warmModel, n, want)
		}
		// The stream's final partial trace is dropped (as in RunStream),
		// so the consumed count can fall short by under one trace.
		if st.Streamed > budget || st.Streamed < budget-16 {
			t.Errorf("warmModel=%v: streamed %d, want within [%d, %d]", warmModel, st.Streamed, budget-16, budget)
		}
		total := st.FFInstrs + st.WarmInstrs + st.MeasuredInstrs
		if warmModel && total != st.Streamed {
			t.Errorf("phase counts %d do not sum to streamed %d", total, st.Streamed)
		}
		var sum uint64
		for i, iv := range st.Intervals {
			if iv.Index != i {
				t.Errorf("interval %d has index %d", i, iv.Index)
			}
			if iv.Instrs != iv.Res.Instructions {
				t.Errorf("interval %d: Instrs %d != delta Instructions %d", i, iv.Instrs, iv.Res.Instructions)
			}
			// Jitter: a unit closes on the trace that crosses the
			// boundary, so at most one trace (16 instrs) of overshoot.
			if iv.Instrs < plan.Detail || iv.Instrs > plan.Detail+16 {
				t.Errorf("interval %d length %d outside [%d, %d]", i, iv.Instrs, plan.Detail, plan.Detail+16)
			}
			if iv.Res.Cycles == 0 || iv.Res.IPC() <= 0 {
				t.Errorf("interval %d has no timing: %+v", i, iv.Res)
			}
			sum += iv.Instrs
		}
		if st.Aggregate.Instructions != sum {
			t.Errorf("aggregate instructions %d != interval sum %d", st.Aggregate.Instructions, sum)
		}
		if st.MeasuredInstrs < sum {
			t.Errorf("measured %d < captured %d", st.MeasuredInstrs, sum)
		}
		if ci := st.IPCCI(); ci.Mean <= 0 || ci.N != len(st.Intervals) {
			t.Errorf("IPC CI degenerate: %+v", ci)
		}
	}
}

// TestSampledTracksFullDetail drives the same recorded stream through a
// full-detail run and a sampled run and requires the sampled mean of
// the headline metrics to land near the full-detail value — the
// correctness claim of sampling, at unit-test scale. The tight
// statistical version (every metric inside its 95% interval at 2M
// instructions) is the ext-sampling experiment.
func TestSampledTracksFullDetail(t *testing.T) {
	const budget = 200_000
	cfg := pipeline.DefaultConfig().WithPrecon(64)

	full, err := harness.RunBenchmark("gcc", 0, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	st, err := harness.RunBenchmarkSampled("gcc", 0, cfg, budget, sample.PlanForBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		f    func(pipeline.Result) float64
	}{
		{"ipc", pipeline.Result.IPC},
		{"tc-miss/KI", pipeline.Result.TCMissPerKI},
		{"icache-instr/KI", pipeline.Result.ICacheInstrsPerKI},
	}
	for _, c := range checks {
		want := c.f(full)
		ci := st.MetricCI(c.f)
		relErr := math.Abs(ci.Mean-want) / math.Abs(want)
		if relErr > 0.25 {
			t.Errorf("%s: sampled %v vs full %v (rel err %.1f%%)", c.name, ci.Mean, want, 100*relErr)
		}
		t.Logf("%s: full %.4f sampled %s (rel err %.2f%%)", c.name, want, ci, 100*relErr)
	}
}

func TestAdaptiveStopsEarly(t *testing.T) {
	const budget = 400_000
	cfg := pipeline.DefaultConfig()

	plan := sample.Plan{Detail: 2_000, Warm: 2_000, Skip: 8_000, WarmModel: true,
		TargetRelCI: 0.5, MinIntervals: 4}
	st, err := harness.RunBenchmarkSampled("compress", 0, cfg, budget, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.Streamed >= budget {
		t.Fatalf("adaptive run consumed the whole budget (%d intervals, CI %s)",
			len(st.Intervals), st.IPCCI())
	}
	if n := len(st.Intervals); n < 4 {
		t.Errorf("stopped before MinIntervals: %d", n)
	}
	if ci := st.IPCCI(); ci.RelHalf() > 0.5 {
		t.Errorf("stopped with relative half-width %v above target", ci.RelHalf())
	}
}
