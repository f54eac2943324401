// Package sample implements statistically sampled simulation: a run
// alternates long functional-only fast-forward stretches with short
// full-detail measurement units, and reports each metric as a mean with
// a Student-t 95% confidence interval over the per-unit measurements —
// the SMARTS-style systematic sampling the paper's 200M-instruction
// benchmark points call for, at a small fraction of full-detail cost.
//
// The machinery is three layers. Plan is the schedule: how many
// instructions to measure per unit, how many to skip between units, and
// how many of each skip's tail to re-run in full detail so
// timing-dependent state is warm when measurement starts. Runner drives
// one pipeline.Simulator through that schedule, switching the
// simulator's Phase at trace boundaries and capturing per-unit
// statistics as differences of mid-run Snapshots — no per-counter
// freeze logic exists anywhere in the hot path. Stats is the output:
// the intervals, their aggregate, and confidence intervals over any
// metric extractor.
package sample

import (
	"errors"
	"fmt"
)

// Plan is a systematic sampling schedule. The stream is divided into
// periods of Skip+Detail committed instructions; each period begins
// with Skip instructions outside measurement — fast-forward, except the
// final Warm of them which run full detail with statistics discarded
// (detailed warm-up) — and ends with a measurement unit of Detail
// instructions run in full detail with statistics captured (with
// Jitter, the unit sits at a pseudo-random offset within the period
// instead of its end — always still preceded by the full Warm).
// Skipping before the first unit matters: the cold start weighs
// 1/Intervals in a mean over units but only Detail/budget in a full
// run's aggregate, so a unit pinned at offset 0 would overweight the
// coldest transient by the whole sampling ratio. The warm-model skip
// traverses it instead, and every unit samples machine state a full
// run actually reaches.
//
// Phase boundaries land on trace boundaries (a demanded trace is never
// split across phases), so actual unit lengths jitter by up to one
// trace (≤16 instructions); Stats records actual counts.
type Plan struct {
	// Detail is the length of each measurement unit in committed
	// instructions.
	Detail uint64
	// Warm is the detailed-warmup length: the last Warm instructions of
	// each skip run full detail (statistics discarded) so port clocks,
	// engine progress and backend occupancy are realistic when the next
	// measurement unit starts. Warm must not exceed Skip.
	Warm uint64
	// Skip is the non-measured stretch between measurement units
	// (including the Warm tail).
	Skip uint64

	// WarmModel keeps trainable state current during fast-forward:
	// suppliers, cache tags, branch and next-trace predictors all see
	// the skipped instructions (frontend.SupplyFast). When false the
	// skip is purely functional — cheapest, but every unit restarts
	// from whatever state the previous detail stretch left, and the
	// segmenter is reset at each warm entry (trace.ChunkSegmenter.Reset)
	// so no trace stitches across the unsegmented gap.
	WarmModel bool

	// ModelWarm bounds WarmModel to the tail of each fast-forward
	// stretch: only the last ModelWarm instructions before the next
	// detailed warm-up run through the warm model; the rest of the skip
	// is raw — decoded but never segmented or fed to the simulator, so
	// a group pays for it once, not once per member (0 runs the warm
	// model over the whole skip). Trainable state re-converges
	// quickly — saturating predictor counters, cache tags and trace
	// cache contents churn at working-set speed — so a tail a few times
	// the detailed warm-up long recovers the warm-model fidelity at a
	// small fraction of its cost. As with WarmModel=false, no trace
	// stitches across the unsegmented gap.
	ModelWarm uint64

	// ObservePrecon forwards to pipeline.Config.FFObservePrecon: the
	// fast-forward phase keeps the preconstruction engine live —
	// demand-fetch notices, the retiring stream, and an idle allowance
	// estimated from the nominal frontend IPC. DefaultPlan turns it on:
	// fast-forward probe-consumes the buffers, so a frozen engine would
	// leave every measurement unit facing drained buffers no full run
	// ever sees, biasing the sampled machine cold.
	ObservePrecon bool

	// EngineWarm bounds ObservePrecon to the tail of each fast-forward
	// stretch: the engine runs only within the last EngineWarm
	// instructions before the next detailed warm-up (0 keeps it live
	// through the whole skip). The engine's observable state — buffer
	// occupancy, active regions, construction progress — has short
	// memory (buffers hold at most a few thousand instructions of
	// traces), but stepping it is the dominant cost of a warm-model
	// fast-forward on preconstruction configurations, so re-warming it
	// just before each unit buys most of the sampling speedup without
	// giving up the live-engine fidelity ObservePrecon exists for.
	EngineWarm uint64

	// Jitter places each period's measurement unit at a deterministic
	// pseudo-random offset inside the period (stratified sampling with
	// one unit per stratum) instead of pinning it to the period's end.
	// A fixed grid aliases against periodic program phase structure —
	// bursty metrics like engine-induced i-cache misses can hide
	// between grid points entirely — while a jittered grid catches them
	// in proportion. The offsets come from a fixed-seed hash of the
	// period index, so runs remain exactly reproducible and every
	// member of a group computes the same schedule.
	Jitter bool

	// TargetRelCI, when positive, enables adaptive sampling: once
	// MinIntervals measurement units are captured, the run stops early
	// as soon as the IPC confidence interval's relative half-width
	// (half/|mean|) is at or below this target. Zero runs the full
	// budget.
	TargetRelCI float64
	// MinIntervals is the floor before adaptive stopping is considered
	// (at least 2 is enforced; Student-t needs two samples).
	MinIntervals int
}

// Validate checks the schedule for consistency.
func (p Plan) Validate() error {
	if p.Detail == 0 {
		return fmt.Errorf("sample: Detail must be positive")
	}
	if p.Skip == 0 {
		return fmt.Errorf("sample: Skip must be positive (use a plain run for full detail)")
	}
	if p.Warm > p.Skip {
		return fmt.Errorf("sample: Warm %d exceeds Skip %d (warm-up is the skip's tail)", p.Warm, p.Skip)
	}
	if p.TargetRelCI < 0 {
		return fmt.Errorf("sample: TargetRelCI %f negative", p.TargetRelCI)
	}
	if p.MinIntervals < 0 {
		return fmt.Errorf("sample: MinIntervals %d negative", p.MinIntervals)
	}
	return nil
}

// Period returns the schedule's period: one measurement unit plus one
// skip.
func (p Plan) Period() uint64 { return p.Detail + p.Skip }

// DetailFraction returns the fraction of the stream run in full detail
// (measurement units plus detailed warm-up).
func (p Plan) DetailFraction() float64 {
	return float64(p.Detail+p.Warm) / float64(p.Period())
}

// Intervals returns the number of complete measurement units a budget
// of committed instructions contains. Unit i closes at (i+1) periods
// into the stream (each period is a skip followed by its unit).
func (p Plan) Intervals(budget uint64) int {
	return int(budget / p.Period())
}

// DefaultPlan returns the paper-scale schedule: 20k-instruction
// measurement units every 500k instructions with 30k detailed warm-up —
// 10% of the stream in full detail, 400 intervals over a
// 200M-instruction run. Warm-model fast-forward is on: skipped
// instructions still train predictors and touch cache tags, which the
// validation experiment (ext-sampling) shows is what keeps the sampled
// means inside their intervals.
func DefaultPlan() Plan {
	return Plan{
		Detail:        20_000,
		Warm:          30_000,
		Skip:          480_000,
		WarmModel:     true,
		ModelWarm:     240_000,
		ObservePrecon: true,
		EngineWarm:    60_000,
		Jitter:        true,
		MinIntervals:  8,
	}
}

// PlanForBudget scales DefaultPlan to the budget. Small budgets halve
// every length until at least ~20 measurement units fit, keeping the
// detailed fraction constant. Large budgets instead stretch the skip —
// doubling it while more than 32 units fit — so the unit count stays
// near what the confidence intervals need while the unit, warm-up and
// warm-model tails keep their absolute lengths: extra budget buys
// longer raw stretches (near-free when a group shares them), not
// more warming, which is how a 200M-instruction sampled run costs a
// small fraction of a 20M full-detail one.
func PlanForBudget(budget uint64) Plan {
	p := DefaultPlan()
	for p.Intervals(budget) < 20 && p.Detail > 512 {
		p.Detail /= 2
		p.Warm /= 2
		p.Skip /= 2
		p.ModelWarm /= 2
		p.EngineWarm /= 2
	}
	for p.Intervals(budget) > 32 {
		p.Skip *= 2
	}
	return p
}

// PlanFromFlags builds and validates the plan that cmd/tablegen's and
// cmd/tracesim's -sample flags describe: PlanForBudget(budget) with the
// -sample-detail, -sample-warm and -sample-target-ci overrides applied.
// detail and warm are -1 when their flag was not given. Errors name the
// offending flag.
func PlanFromFlags(budget uint64, detail, warm int64, targetCI float64) (Plan, error) {
	if budget == 0 {
		return Plan{}, errors.New("-n 0: sampling needs a positive instruction budget")
	}
	if detail < -1 || detail == 0 {
		return Plan{}, fmt.Errorf("-sample-detail %d: measurement units must be positive", detail)
	}
	if warm < -1 {
		return Plan{}, fmt.Errorf("-sample-warm %d: warm-up length cannot be negative", warm)
	}
	if targetCI < 0 {
		return Plan{}, fmt.Errorf("-sample-target-ci %v: relative half-width target cannot be negative", targetCI)
	}
	p := PlanForBudget(budget)
	if detail > 0 {
		p.Detail = uint64(detail)
	}
	if warm >= 0 {
		p.Warm = uint64(warm)
	}
	p.TargetRelCI = targetCI
	if p.Warm > p.Skip {
		return Plan{}, fmt.Errorf("-sample-warm %d exceeds the %d-instruction skip (warm-up is the skip's tail)", p.Warm, p.Skip)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
