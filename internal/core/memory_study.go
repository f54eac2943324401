package core

import (
	"context"
	"fmt"

	"tracepre/internal/cache"
	"tracepre/internal/harness"
	"tracepre/internal/mem"
)

// MemoryRow is one benchmark × memory-level cell of the
// memory-sensitivity study: what a real shared L2 behind the L1s does
// to timing, and how much of its traffic and miss tracking the
// preconstruction engine consumes.
type MemoryRow struct {
	Bench        string
	Level        string
	IPC          float64
	L2MissRate   float64 // 0 under the fixed (perfect) level
	MSHRStallKI  float64 // MSHR-full wait cycles per 1000 instructions
	PreconShare  float64 // engine fraction of L2 accesses
	PreconDenied uint64  // engine fetches refused by MSHR back-pressure
}

// MemoryResult holds the memory-sensitivity sweep.
type MemoryResult struct {
	Rows   []MemoryRow
	Budget uint64
}

// memoryLevels enumerates the swept memory levels: the paper's flat
// constant, then modeled L2s crossing capacity with MSHR count. The
// starved 1-MSHR corners make finite miss tracking and the engine's
// back-pressure visible at any budget. Capacity only differentiates on
// longer runs: at short budgets the 64KiB L1s retain every
// re-referenced line, so the L2 sees compulsory traffic only and the
// capacity rows coincide (miss rate 1.0); past a few million
// instructions L1 evictions start re-reaching the L2 and the larger
// configuration pulls ahead.
func memoryLevels() []struct {
	name string
	cfg  mem.Config
} {
	l2 := func(kib, assoc, mshrs int) mem.Config {
		return mem.Config{
			ModelL2: true,
			L2:      cache.Config{SizeBytes: kib * 1024, LineBytes: 64, Assoc: assoc},
			HitLat:  10,
			MissLat: 40,
			MSHRs:   mshrs,
			FillGap: 4,
		}
	}
	return []struct {
		name string
		cfg  mem.Config
	}{
		{"fixed 10cy (paper)", mem.Config{}},
		{"64KiB L2, 1 MSHR", l2(64, 4, 1)},
		{"64KiB L2, 8 MSHRs", l2(64, 4, 8)},
		{"256KiB L2, 1 MSHR", l2(256, 8, 1)},
		{"256KiB L2, 8 MSHRs", l2(256, 8, 8)},
	}
}

// MemoryStudyCtx measures memory sensitivity on the full-timing
// machine with preconstruction, with sweep cancellation and progress
// via ctx: each benchmark's recorded stream runs against the paper's
// flat 10-cycle level and a grid of modeled shared L2s (capacity ×
// MSHR count). The precon columns quantify what the flat model hides —
// the engine's stolen fetches land in the same L2 and the same MSHRs
// as demand traffic.
func MemoryStudyCtx(ctx context.Context, budget uint64, benches []string) (*MemoryResult, error) {
	levels := memoryLevels()
	points := make([]harness.ConfigPoint, len(levels))
	for i, l := range levels {
		cfg := TimingConfig(PreconConfig(256, 256), false).WithModeledL2(l.cfg)
		points[i] = harness.ConfigPoint{Name: l.name, Cfg: cfg}
	}
	g, err := harness.Run(ctx, harness.Matrix{
		Name: "ext-memory", Benches: benches, Budget: budget,
		Points: points,
	})
	if err != nil {
		return nil, err
	}
	out := &MemoryResult{Budget: budget}
	for _, b := range benches {
		for _, l := range levels {
			res := g.MustCell(b, l.name).Result
			out.Rows = append(out.Rows, MemoryRow{
				Bench:        b,
				Level:        l.name,
				IPC:          harness.IPC.Of(res),
				L2MissRate:   harness.L2MissRate.Of(res),
				MSHRStallKI:  harness.L2MSHRStallPerKI.Of(res),
				PreconShare:  harness.PreconL2Share.Of(res),
				PreconDenied: res.Memory.PreconDenied,
			})
		}
	}
	return out, nil
}

// TableSpecs renders the study.
func (r *MemoryResult) TableSpecs() []harness.TableSpec {
	spec := harness.TableSpec{
		Title: fmt.Sprintf("Extension: memory sensitivity — modeled shared L2 behind the L1s, full timing, 256 TC + 256 PB (budget %d)", r.Budget),
		Headers: []string{"benchmark", "memory level", "IPC", "l2-miss-rate",
			"l2-mshr-stall-cycles/KI", "precon-l2-share", "precon-denied"},
	}
	for _, row := range r.Rows {
		spec.Rows = append(spec.Rows, []any{row.Bench, row.Level,
			fmt.Sprintf("%.4f", row.IPC), fmt.Sprintf("%.4f", row.L2MissRate),
			row.MSHRStallKI, fmt.Sprintf("%.4f", row.PreconShare), row.PreconDenied})
	}
	return []harness.TableSpec{spec}
}

// Table renders the study as ASCII text.
func (r *MemoryResult) Table() string { return harness.RenderASCII(r.TableSpecs()) }
