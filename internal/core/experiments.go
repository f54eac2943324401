package core

import (
	"context"
	"fmt"

	"tracepre/internal/harness"
)

// Figure5TCSizes are the trace cache sizes swept in Figure 5 (entries;
// 16-instruction traces, so 64 entries = 4 KB of instructions).
var Figure5TCSizes = []int{64, 128, 256, 512, 1024}

// Figure5PBSizes are the preconstruction buffer sizes swept in Figure 5.
// 0 is the no-preconstruction baseline curve.
var Figure5PBSizes = []int{0, 64, 256}

// Fig5Point is one measurement of Figure 5: trace cache misses per 1000
// instructions for one benchmark and storage configuration.
type Fig5Point struct {
	Bench     string
	TCEntries int
	PBEntries int
	MissPerKI float64
}

// CombinedEntries is the iso-area x-axis of Figure 5.
func (p Fig5Point) CombinedEntries() int { return p.TCEntries + p.PBEntries }

// Fig5Result holds the full sweep.
type Fig5Result struct {
	Points []Fig5Point
	Budget uint64
}

// fig5Points declares the Figure 5 storage grid as named config points.
func fig5Points() []harness.ConfigPoint {
	var pts []harness.ConfigPoint
	for _, pb := range Figure5PBSizes {
		for _, tc := range Figure5TCSizes {
			if pb >= 256 && tc >= 1024 {
				continue // beyond the paper's area range
			}
			cfg := BaselineConfig(tc)
			if pb > 0 {
				cfg = PreconConfig(tc, pb)
			}
			pts = append(pts, harness.ConfigPoint{Name: fmt.Sprintf("tc%d/pb%d", tc, pb), Cfg: cfg})
		}
	}
	return pts
}

// Figure5 reproduces the paper's Figure 5: trace cache miss rates as a
// function of combined trace cache + preconstruction buffer size, one
// curve per buffer size, for each benchmark.
func Figure5(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*Fig5Result, error) {
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "fig5", Benches: benches, Budget: budget, Points: fig5Points(),
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{Budget: budget}
	for i := range g.Cells {
		c := &g.Cells[i]
		out.Points = append(out.Points, Fig5Point{
			Bench:     c.Bench,
			TCEntries: c.Point.Cfg.TraceCache.Entries,
			PBEntries: c.Point.Cfg.Buffers.Entries,
			MissPerKI: harness.TCMissPerKI.Of(c.Result),
		})
	}
	return out, nil
}

// TableSpecs renders the sweep, one panel per benchmark.
func (r *Fig5Result) TableSpecs() []harness.TableSpec {
	var specs []harness.TableSpec
	byBench := map[string]int{}
	for _, p := range r.Points {
		i, ok := byBench[p.Bench]
		if !ok {
			i = len(specs)
			byBench[p.Bench] = i
			specs = append(specs, harness.TableSpec{
				Title: fmt.Sprintf("Figure 5 [%s]: trace cache misses per 1000 instructions (budget %d)",
					p.Bench, r.Budget),
				Headers:    []string{"TC entries", "PB entries", "combined", "miss/KI"},
				BlankAfter: true,
			})
		}
		specs[i].Rows = append(specs[i].Rows,
			[]any{p.TCEntries, p.PBEntries, p.CombinedEntries(), p.MissPerKI})
	}
	return specs
}

// SupplyRow is one benchmark's Table 1/2/3 measurements for the paper's
// two configurations: a 512-entry trace cache versus a 256-entry trace
// cache plus 256 preconstruction buffers.
type SupplyRow struct {
	Bench string
	// Base is the 512-entry trace cache; Pre is 256 TC + 256 PB.
	BaseICInstrsPerKI float64 // Table 1
	PreICInstrsPerKI  float64
	BaseICMissPerKI   float64 // Table 2
	PreICMissPerKI    float64
	BaseFromMissPerKI float64 // Table 3
	PreFromMissPerKI  float64
}

// SupplyResult holds Tables 1-3.
type SupplyResult struct {
	Rows   []SupplyRow
	Budget uint64
}

// Tables123 reproduces Tables 1, 2 and 3: instruction cache supply and
// miss behaviour with and without preconstruction for gcc and go.
func Tables123(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*SupplyResult, error) {
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "tables123", Benches: benches, Budget: budget,
		Points: []harness.ConfigPoint{
			{Name: "base", Cfg: BaselineConfig(512)},
			{Name: "precon", Cfg: PreconConfig(256, 256)},
		},
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &SupplyResult{Budget: budget, Rows: make([]SupplyRow, len(benches))}
	for i, b := range benches {
		base, pre := g.MustCell(b, "base").Result, g.MustCell(b, "precon").Result
		out.Rows[i] = SupplyRow{
			Bench:             b,
			BaseICInstrsPerKI: harness.ICacheInstrsPerKI.Of(base),
			PreICInstrsPerKI:  harness.ICacheInstrsPerKI.Of(pre),
			BaseICMissPerKI:   harness.ICacheMissesPerKI.Of(base),
			PreICMissPerKI:    harness.ICacheMissesPerKI.Of(pre),
			BaseFromMissPerKI: harness.InstrsFromICMissesPerKI.Of(base),
			PreFromMissPerKI:  harness.InstrsFromICMissesPerKI.Of(pre),
		}
	}
	return out, nil
}

// TableSpecs renders Tables 1-3 in the paper's layout.
func (r *SupplyResult) TableSpecs() []harness.TableSpec {
	specs := []harness.TableSpec{
		{Title: fmt.Sprintf("Table 1: instructions supplied by the I-cache per 1000 instructions (budget %d)", r.Budget),
			Headers: []string{"benchmark", "512-entry TC", "256 TC + 256 PB"}, BlankAfter: true},
		{Title: "Table 2: I-cache misses per 1000 instructions",
			Headers: []string{"benchmark", "512-entry TC", "256 TC + 256 PB"}, BlankAfter: true},
		{Title: "Table 3: instructions supplied by I-cache misses per 1000 instructions",
			Headers: []string{"benchmark", "512-entry TC", "256 TC + 256 PB"}},
	}
	for _, row := range r.Rows {
		specs[0].Rows = append(specs[0].Rows, []any{row.Bench, row.BaseICInstrsPerKI, row.PreICInstrsPerKI})
		specs[1].Rows = append(specs[1].Rows, []any{row.Bench, row.BaseICMissPerKI, row.PreICMissPerKI})
		specs[2].Rows = append(specs[2].Rows, []any{row.Bench, row.BaseFromMissPerKI, row.PreFromMissPerKI})
	}
	return specs
}

// Fig6Point is one bar of Figure 6: the percent speedup from replacing
// half of a trace cache with preconstruction buffers.
type Fig6Point struct {
	Bench      string
	TCEntries  int // baseline size; precon config is TC/2 + TC/2
	SpeedupPct float64
	BaseIPC    float64
	PreconIPC  float64
}

// Fig6Result holds the Figure 6 sweep.
type Fig6Result struct {
	Points []Fig6Point
	Budget uint64
}

// Figure6TCSizes are the baseline trace cache sizes of Figure 6.
var Figure6TCSizes = []int{256, 512}

// Figure6 reproduces Figure 6: overall performance improvement from
// preconstruction under the full timing model (paper: 3-10% for gcc,
// go, perl and vortex).
func Figure6(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*Fig6Result, error) {
	var pts []harness.ConfigPoint
	for _, tc := range Figure6TCSizes {
		pts = append(pts,
			harness.ConfigPoint{Name: fmt.Sprintf("base%d", tc), Cfg: TimingConfig(BaselineConfig(tc), false)},
			harness.ConfigPoint{Name: fmt.Sprintf("precon%d", tc), Cfg: TimingConfig(PreconConfig(tc/2, tc/2), false)})
	}
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "fig6", Benches: benches, Budget: budget, Points: pts,
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{Budget: budget}
	for _, b := range benches {
		for _, tc := range Figure6TCSizes {
			base := g.MustCell(b, fmt.Sprintf("base%d", tc))
			pre := g.MustCell(b, fmt.Sprintf("precon%d", tc))
			out.Points = append(out.Points, Fig6Point{
				Bench: b, TCEntries: tc,
				SpeedupPct: harness.SpeedupPct(base, pre),
				BaseIPC:    harness.IPC.Of(base.Result),
				PreconIPC:  harness.IPC.Of(pre.Result),
			})
		}
	}
	return out, nil
}

// TableSpecs renders Figure 6.
func (r *Fig6Result) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("Figure 6: speedup from preconstruction, TC vs TC/2 + PB/2 (budget %d)", r.Budget),
		Headers: []string{"benchmark", "TC entries", "base IPC", "precon IPC", "speedup %"},
	}
	for _, p := range r.Points {
		spec.Rows = append(spec.Rows, []any{p.Bench, p.TCEntries,
			fmt.Sprintf("%.3f", p.BaseIPC), fmt.Sprintf("%.3f", p.PreconIPC), p.SpeedupPct})
	}
	return []harness.TableSpec{spec}
}

// Fig8Row is one benchmark of Figure 8: speedups from preconstruction,
// preprocessing, their combination, and the sum of the parts.
type Fig8Row struct {
	Bench       string
	PreconPct   float64
	PreprocPct  float64
	CombinedPct float64
	SumPct      float64
	BaseIPC     float64
}

// Fig8Result holds Figure 8.
type Fig8Result struct {
	Rows   []Fig8Row
	Budget uint64
}

// Figure8 reproduces Figure 8's extended pipeline study: a 256-entry
// trace cache baseline against (a) 128 TC + 128 PB, (b) 256 TC with
// preprocessing, and (c) 128 TC + 128 PB with preprocessing. The paper
// reports 2-8% (a), 8-12% (b), and 12-20% (c), with (c) exceeding the
// sum of (a) and (b).
func Figure8(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (*Fig8Result, error) {
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "fig8", Benches: benches, Budget: budget,
		Points: []harness.ConfigPoint{
			{Name: "base", Cfg: TimingConfig(BaselineConfig(256), false)},
			{Name: "precon", Cfg: TimingConfig(PreconConfig(128, 128), false)},
			{Name: "preproc", Cfg: TimingConfig(BaselineConfig(256), true)},
			{Name: "both", Cfg: TimingConfig(PreconConfig(128, 128), true)},
		},
	}, opts...)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{Budget: budget, Rows: make([]Fig8Row, len(benches))}
	for i, b := range benches {
		base := g.MustCell(b, "base")
		row := Fig8Row{
			Bench:       b,
			PreconPct:   harness.SpeedupPct(base, g.MustCell(b, "precon")),
			PreprocPct:  harness.SpeedupPct(base, g.MustCell(b, "preproc")),
			CombinedPct: harness.SpeedupPct(base, g.MustCell(b, "both")),
			BaseIPC:     harness.IPC.Of(base.Result),
		}
		row.SumPct = row.PreconPct + row.PreprocPct
		out.Rows[i] = row
	}
	return out, nil
}

// TableSpecs renders Figure 8.
func (r *Fig8Result) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title:   fmt.Sprintf("Figure 8: extended pipeline speedups over a 256-entry TC (budget %d)", r.Budget),
		Headers: []string{"benchmark", "base IPC", "precon %", "preproc %", "combined %", "sum of parts %"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Bench, fmt.Sprintf("%.3f", row.BaseIPC),
			row.PreconPct, row.PreprocPct, row.CombinedPct, row.SumPct})
	}
	return []harness.TableSpec{spec}
}

// Experiment identifies one reproducible artifact from the paper: an
// ID, a title, the benchmark set it defaults to, and the harness-backed
// driver producing its typed, renderable result.
type Experiment struct {
	ID    string
	Title string
	// DefaultBenches returns the benchmark set used when the caller
	// passes nil benchmarks.
	DefaultBenches func() []string

	driver driverFunc
}

// driverFunc runs an experiment's sweeps over benches, handing opts to
// each, and returns its typed result.
type driverFunc func(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (harness.Tabler, error)

// Run executes the experiment over benches (nil: its default set),
// handing opts to every sweep it runs, and returns its typed result:
// render its TableSpecs with harness.RenderASCII or RenderCSV, or
// marshal it as JSON.
func (e Experiment) Run(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (harness.Tabler, error) {
	if benches == nil {
		benches = e.DefaultBenches()
	}
	return e.driver(ctx, budget, benches, opts...)
}

// tabler adapts an experiment function to a driverFunc.
func tabler[R harness.Tabler](run func(context.Context, uint64, []string, ...harness.Option) (R, error)) driverFunc {
	return func(ctx context.Context, budget uint64, benches []string, opts ...harness.Option) (harness.Tabler, error) {
		r, err := run(ctx, budget, benches, opts...)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Experiments lists every table and figure of the paper's evaluation,
// followed by the extension and ablation studies this reproduction
// adds (see extensions.go).
func Experiments() []Experiment {
	exps := PaperExperiments()
	return append(exps, extensionExperiments()...)
}

// PaperExperiments lists the artifacts that appear in the paper itself.
func PaperExperiments() []Experiment {
	return []Experiment{
		{
			ID:             "fig5",
			Title:          "Figure 5: trace cache miss rates across TC/PB configurations",
			DefaultBenches: Benchmarks,
			driver:         tabler(Figure5),
		},
		{
			ID:             "tables123",
			Title:          "Tables 1-3: instruction cache supply with and without preconstruction",
			DefaultBenches: func() []string { return []string{"gcc", "go"} },
			driver:         tabler(Tables123),
		},
		{
			ID:             "fig6",
			Title:          "Figure 6: performance improvement from preconstruction",
			DefaultBenches: TimingBenchmarks,
			driver:         tabler(Figure6),
		},
		{
			ID:             "fig8",
			Title:          "Figure 8: extended pipeline (preconstruction x preprocessing)",
			DefaultBenches: TimingBenchmarks,
			driver:         tabler(Figure8),
		},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}
