package core

import (
	"context"
	"fmt"

	"tracepre/internal/harness"
)

// FrontendRow is one benchmark × frontend-design cell of the supplier
// study: who supplied the demanded traces and how contended the shared
// slow-path i-cache port was.
type FrontendRow struct {
	Bench          string
	Design         string
	TCHitRate      float64 // primary supplier hits / demanded traces
	PBHitRate      float64 // buffer hits / primary misses
	MissPerKI      float64
	PortContention float64 // engine fetch requests denied / requested
	PortIdlePerKI  float64 // idle port cycles granted to the engine /KI
}

// FrontendResult holds the frontend supplier/port study.
type FrontendResult struct {
	Rows   []FrontendRow
	Budget uint64
}

// FrontendStudy measures the composed frontend's per-supplier hit
// rates and the slow-path port arbitration across the split and
// adaptive designs at equal total storage. The port columns quantify
// the paper's "the engine uses only otherwise-idle i-cache port
// cycles" assumption: contention
// is the fraction of engine fetch requests the arbiter denied because
// the per-cycle budget was spent.
func FrontendStudy(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*FrontendResult, error) {
	adaptCfg := PreconConfig(256, 256)
	adaptCfg.AdaptivePartition = true
	designs := []string{"split", "adaptive"}
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "ext-frontend", Benches: benches, Budget: budget,
		Points: []harness.ConfigPoint{
			{Name: "split", Cfg: PreconConfig(256, 256)},
			{Name: "adaptive", Cfg: adaptCfg},
		},
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &FrontendResult{Budget: budget}
	for _, b := range benches {
		for _, d := range designs {
			res := g.MustCell(b, d).Result
			out.Rows = append(out.Rows, FrontendRow{
				Bench:          b,
				Design:         d,
				TCHitRate:      harness.TCHitRate.Of(res),
				PBHitRate:      harness.PBHitRate.Of(res),
				MissPerKI:      harness.TCMissPerKI.Of(res),
				PortContention: harness.SlowPathPortContention.Of(res),
				PortIdlePerKI:  harness.PortIdleCyclesPerKI.Of(res),
			})
		}
	}
	return out, nil
}

// TableSpecs renders the study.
func (r *FrontendResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title: fmt.Sprintf("Extension: frontend supplier hit rates and slow-path port arbitration, 256 TC + 256 PB (budget %d)", r.Budget),
		Headers: []string{"benchmark", "design", "tc-hit-rate", "pb-hit-rate", "miss/KI",
			"slowpath-port-contention", "port-idle-cycles/KI"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Bench, row.Design,
			fmt.Sprintf("%.4f", row.TCHitRate), fmt.Sprintf("%.4f", row.PBHitRate),
			row.MissPerKI, fmt.Sprintf("%.4f", row.PortContention), row.PortIdlePerKI})
	}
	return []harness.TableSpec{spec}
}
