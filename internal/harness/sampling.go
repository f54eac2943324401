package harness

import (
	"context"
	"math"

	"tracepre/internal/sample"
	"tracepre/internal/stats"
)

// WithSampling runs every cell of the sweep under statistically sampled
// simulation with the given plan: each cell's Result becomes the
// aggregate over its measurement units (so every Metric extractor works
// unchanged) and Cell.Sample carries the per-interval statistics and
// confidence intervals.
func WithSampling(plan sample.Plan) Option {
	return func(o *runOptions) { p := plan; o.sampling = &p }
}

// samplingCtxKey carries a sampling plan through a context, mirroring
// progressCtxKey: cmd/tablegen's -sample flags set it once and every
// sweep executed under the context runs sampled.
type samplingCtxKey struct{}

// ContextWithSampling returns a context under which every harness.Run
// executes sampled with the plan. An explicit WithSampling option wins
// over the context value.
func ContextWithSampling(ctx context.Context, plan sample.Plan) context.Context {
	return context.WithValue(ctx, samplingCtxKey{}, plan)
}

// MetricCI returns the metric's Student-t 95% confidence interval over
// the cell's measurement units. For a cell that ran full detail (no
// sampling) the interval degenerates to the point value with N = 1 and
// zero half-width.
func MetricCI(m Metric, c *Cell) stats.CI {
	if c.Sample == nil {
		return stats.CI{Mean: m.Of(c.Result), N: 1}
	}
	return c.Sample.MetricCI(m.Fn)
}

// SampledErrorPct returns the relative error, in percent, of the
// sampled cell's metric against the full-detail cell's — the
// `sampled-error-pct` the validation experiment and benches report.
// A zero full-detail value with a nonzero sampled value reports +Inf.
func SampledErrorPct(m Metric, full, sampled *Cell) float64 {
	want, got := m.Of(full.Result), m.Of(sampled.Result)
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}
