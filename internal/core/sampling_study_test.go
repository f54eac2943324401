package core

import (
	"context"
	"testing"

	"tracepre/internal/harness"
	"tracepre/internal/sample"
)

// TestSampledCoversFullRunCI is the sampled-simulation acceptance gate:
// at the standard 2M-instruction budget, every compared metric's
// full-detail value must lie inside the sampled run's 95% confidence
// interval, and the point estimates of the precise headline metrics
// must additionally be within 12%. Coverage is the primary criterion;
// the tight bound allows for the few-percent warm-deficit bias that
// two-level warming (sample.Plan.ModelWarm) carries on supply-side
// metrics — the model-warm tail re-converges trainable state but not
// perfectly, and the residual shows up as a small systematic offset on
// cache-access rates. The engine-induced i-cache miss rate is exempt
// from the tight bound entirely (coverage still enforced): those
// misses arrive in rare working-set-transition bursts — most units see
// zero, a few see hundreds — so 32 units cannot pin the mean tightly
// and the interval's width honestly reports that. Everything here is
// deterministic — the stream, the plan and the simulators — so this is
// a fixed property of the implementation, not a flaky statistical draw.
func TestSampledCoversFullRunCI(t *testing.T) {
	if testing.Short() {
		t.Skip("2M-instruction full-detail reference run")
	}
	r, err := SamplingStudy(context.Background(), DefaultBudget, []string{"gcc", "go"})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if !row.Covered {
			t.Errorf("%s/%s: full-detail %.4f outside sampled interval %s",
				row.Bench, row.Metric, row.Full, row.Sampled)
		}
		if row.RelErrPct > 12 && row.Metric != "icache-miss/KI" {
			t.Errorf("%s/%s: sampled estimate off by %.1f%% (full %.4f, sampled %s)",
				row.Bench, row.Metric, row.RelErrPct, row.Full, row.Sampled)
		}
		t.Logf("%s/%-16s full %8.4f sampled %-16s rel-err %5.2f%%",
			row.Bench, row.Metric, row.Full, row.Sampled, row.RelErrPct)
	}
	for _, b := range r.Benchs {
		if b.DetailPct > 12 {
			t.Errorf("%s: %.1f%% of the stream ran in detail, want ~10%%", b.Bench, b.DetailPct)
		}
	}
}

// TestSamplingStudyValidatesGivenPlan: the study validates the plan its
// options carry, PlanForBudget when they carry none, and its reference
// always runs in full detail. A sampling option that reached the
// reference would compare the plan with itself and report zero error.
func TestSamplingStudyValidatesGivenPlan(t *testing.T) {
	ctx := context.Background()
	benches := []string{"compress"}
	def, err := SamplingStudy(ctx, SmallBudget, benches)
	if err != nil {
		t.Fatal(err)
	}
	if want := sample.PlanForBudget(SmallBudget); def.Plan != want {
		t.Errorf("default plan %+v, want PlanForBudget's %+v", def.Plan, want)
	}
	p := sample.Plan{Detail: 2_000, Warm: 3_000, Skip: 18_000, WarmModel: true}
	got, err := SamplingStudy(ctx, SmallBudget, benches, harness.WithSampling(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan != p {
		t.Errorf("plan %+v, want the given %+v", got.Plan, p)
	}
	if n, want := got.Benchs[0].Intervals, p.Intervals(SmallBudget); n != want && n != want-1 {
		t.Errorf("%d intervals, want the given plan's %d (or one fewer)", n, want)
	}
	if len(got.Rows) != len(def.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(def.Rows))
	}
	for i, row := range got.Rows {
		if row.Full != def.Rows[i].Full {
			t.Errorf("%s/%s: full-detail %v under a sampling option, %v without",
				row.Bench, row.Metric, row.Full, def.Rows[i].Full)
		}
	}
	if _, err := SamplingStudy(ctx, SmallBudget, benches, harness.WithSampling(sample.Plan{})); err == nil {
		t.Error("an invalid given plan was accepted")
	}
}
