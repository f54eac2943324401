package core

import (
	"context"
	"fmt"

	"tracepre/internal/harness"
	"tracepre/internal/sample"
	"tracepre/internal/stats"
)

// SamplingRow compares one metric of one benchmark between a
// full-detail run and a sampled run of the same recorded stream.
type SamplingRow struct {
	Bench  string
	Metric string
	// Full is the full-detail (every instruction simulated) value — the
	// ground truth the sampled estimate must recover.
	Full float64
	// Sampled is the mean ± Student-t 95% half-width over the sampled
	// run's measurement units.
	Sampled stats.CI
	// RelErrPct is |sampled − full| / |full| in percent, where the
	// sampled point estimate is the aggregate over all measured
	// instructions (Stats.Aggregate) — the ratio of sums, not the mean
	// of per-unit ratios the interval is built on. The two differ on
	// short noisy units (a ratio estimator weighs every unit equally;
	// the aggregate weighs by instructions), and the aggregate is what
	// sampled sweeps report as Cell.Result.
	RelErrPct float64
	// Covered reports whether the full-detail value lies inside the
	// sampled 95% interval — the statistical claim sampling makes.
	Covered bool
}

// SamplingBenchRow summarizes one benchmark's sampled run.
type SamplingBenchRow struct {
	Bench          string
	Intervals      int
	MeasuredInstrs uint64
	WarmInstrs     uint64
	FFInstrs       uint64
	DetailPct      float64 // measured+warm as a share of the stream
}

// SamplingResult holds the sampled-simulation validation study.
type SamplingResult struct {
	Rows   []SamplingRow
	Benchs []SamplingBenchRow
	Budget uint64
	Plan   sample.Plan
}

// samplingMetrics are the compared metrics: the paper's headline
// supply-side rates plus IPC, the adaptive stopping criterion.
func samplingMetrics() []harness.Metric {
	return []harness.Metric{
		harness.IPC,
		harness.TCMissPerKI,
		harness.ICacheInstrsPerKI,
		harness.ICacheMissesPerKI,
	}
}

// SamplingStudy validates statistically sampled simulation against full
// detail: the same recorded stream runs once with every instruction
// simulated and once under the systematic sampling plan, and each
// metric's sampled confidence interval is checked against the
// full-detail value. This is the trust anchor for the paper-scale
// (200M-instruction) sampled runs, which have no affordable full-detail
// reference. The plan under test is the one opts carry (WithSampling),
// or PlanForBudget when they carry none; the reference runs in full
// detail either way, under the rest of opts.
func SamplingStudy(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*SamplingResult, error) {
	var set harness.Settings
	for _, opt := range opts {
		opt(&set)
	}
	plan := sample.PlanForBudget(budget)
	if set.Sampling != nil {
		plan = *set.Sampling
	}
	m := harness.Matrix{
		Name: "ext-sampling", Benches: benches, Budget: budget,
		Points: []harness.ConfigPoint{{Name: "pb256", Cfg: PreconConfig(256, 256)}},
	}
	run := func(p *sample.Plan) (*harness.Grid, error) {
		return harness.Run(ctx, m, func(o *harness.Settings) {
			*o = set
			o.Sampling = p
		})
	}
	// The plan under test runs first, so an invalid one fails before
	// the reference costs anything.
	sampled, err := run(&plan)
	if err != nil {
		return nil, err
	}
	full, err := run(nil)
	if err != nil {
		return nil, err
	}

	out := &SamplingResult{Budget: budget, Plan: plan}
	for _, b := range benches {
		fc, sc := full.MustCell(b, "pb256"), sampled.MustCell(b, "pb256")
		for _, metric := range samplingMetrics() {
			ci := harness.MetricCI(metric, sc)
			want := metric.Of(fc.Result)
			out.Rows = append(out.Rows, SamplingRow{
				Bench:     b,
				Metric:    metric.Name,
				Full:      want,
				Sampled:   ci,
				RelErrPct: harness.SampledErrorPct(metric, fc, sc),
				Covered:   ci.Contains(want),
			})
		}
		ss := sc.Sample
		out.Benchs = append(out.Benchs, SamplingBenchRow{
			Bench:          b,
			Intervals:      len(ss.Intervals),
			MeasuredInstrs: ss.MeasuredInstrs,
			WarmInstrs:     ss.WarmInstrs,
			FFInstrs:       ss.FFInstrs,
			DetailPct:      float64(ss.MeasuredInstrs+ss.WarmInstrs) * 100 / float64(ss.Streamed),
		})
	}
	return out, nil
}

// TableSpecs renders the study.
func (r *SamplingResult) TableSpecs() []harness.TableSpec {
	p := r.Plan
	cmp := harness.TableSpec{
		Title: fmt.Sprintf("Extension: sampled vs full-detail simulation (budget %d; detail %d / warm %d / skip %d)",
			r.Budget, p.Detail, p.Warm, p.Skip),
		Headers:    []string{"benchmark", "metric", "full-detail", "sampled (95% CI)", "rel-err-%", "covered"},
		BlankAfter: true,
	}
	for _, row := range r.Rows {
		cmp.Rows = append(cmp.Rows, []any{row.Bench, row.Metric, row.Full, row.Sampled,
			row.RelErrPct, row.Covered})
	}
	sum := harness.TableSpec{
		Title:   "Sampled-run composition",
		Headers: []string{"benchmark", "intervals", "measured", "warm", "fast-forward", "detail-%"},
	}
	for _, row := range r.Benchs {
		sum.Rows = append(sum.Rows, []any{row.Bench, row.Intervals, row.MeasuredInstrs,
			row.WarmInstrs, row.FFInstrs, row.DetailPct})
	}
	return []harness.TableSpec{cmp, sum}
}
