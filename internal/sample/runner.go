package sample

import (
	"fmt"
	"math/bits"

	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/stats"
	"tracepre/internal/trace"
)

// IntervalStats is one measurement unit's capture: the counter-wise
// difference of the simulator's Snapshot at the unit's entry and exit.
// Res is a self-contained pipeline.Result for the unit, so every metric
// extractor that works on a full run works per-interval unchanged.
type IntervalStats struct {
	Index  int
	Start  uint64 // stream offset of the unit's first instruction
	Instrs uint64 // actual unit length (trace-boundary jitter included)
	Res    pipeline.Result
}

// Stats is a sampled run's output.
type Stats struct {
	Plan   Plan
	Budget uint64

	// Streamed counts committed instructions actually consumed — less
	// than Budget when adaptive sampling stopped early.
	Streamed uint64
	// Per-phase instruction counts (actual, jitter included).
	FFInstrs       uint64
	WarmInstrs     uint64
	MeasuredInstrs uint64

	// Intervals holds every complete measurement unit in stream order.
	// A unit cut off by the end of the stream or the budget is dropped,
	// never partially reported.
	Intervals []IntervalStats

	// Aggregate sums the interval deltas counter-wise: a Result covering
	// exactly the measured instructions, on which the harness's metric
	// extractors compute the sampled point estimates.
	Aggregate pipeline.Result
}

// MetricCI returns the Student-t 95% confidence interval of a metric
// evaluated on each measurement unit.
func (s *Stats) MetricCI(f func(pipeline.Result) float64) stats.CI {
	xs := make([]float64, len(s.Intervals))
	for i := range s.Intervals {
		xs[i] = f(s.Intervals[i].Res)
	}
	return stats.CI95(xs)
}

// IPCCI returns the confidence interval of per-unit IPC — the adaptive
// stopping rule's criterion and the headline accuracy number.
func (s *Stats) IPCCI() stats.CI {
	return s.MetricCI(pipeline.Result.IPC)
}

// segment kinds, in within-period order: each period fast-forwards,
// warms, measures, then fast-forwards out the period's tail (the tail
// is empty without Jitter — the unit then sits at the period's end).
const (
	segFF = iota
	segWarm
	segMeasure
	segFFTail
	segKinds
)

// jitterOffset returns period i's measurement-unit placement: how many
// of the period's ffLen+1 possible fast-forward prefixes precede the
// warm-up. The offsets follow the golden-ratio Kronecker sequence
// frac(i*phi) — a low-discrepancy rotation that is aperiodic (so it
// cannot lock onto periodic program phase structure the way a fixed
// grid does) yet equidistributed (so a single realization cannot
// cluster its units on hot spots the way an independent pseudo-random
// draw can). Deterministic, so runs are exactly reproducible and every
// member of a group computes the same schedule.
func jitterOffset(i, ffLen uint64) uint64 {
	const inversePhi = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	hi, _ := bits.Mul64(i*inversePhi, ffLen+1)
	return hi
}

// Runner drives one simulator through a sampling schedule. The caller
// owns stream decode and trace segmentation (so the harness's group
// driver shares both across a group) and feeds demanded traces through
// Feed; the runner switches the simulator's phase at unit boundaries,
// snapshots around measurement units, and applies the adaptive
// stopping rule. Feed-fed
// runs must segment with the simulator's own SelectConfig over the
// same stream prefix, in order — the contract of
// pipeline.Simulator.RunTrace, which Feed wraps.
type Runner struct {
	sim  *pipeline.Simulator
	plan Plan

	budget uint64
	pos    uint64 // committed instructions consumed so far

	seg      int    // current segment kind
	segLeft  uint64 // instructions until the next boundary (saturating)
	period   uint64 // periods started (jitter stratum index)
	ffHead   uint64 // current period's pre-warm fast-forward length
	snap     pipeline.Result
	unitFrom uint64 // pos at the open measurement unit's entry

	st       Stats
	finished bool
	done     bool // no more input wanted (budget, stream end, or adaptive stop)
}

// NewRunner opens a sampled chunked run on sim (claiming its single
// run, like StartChunked) with the given plan and committed-instruction
// budget.
func NewRunner(sim *pipeline.Simulator, plan Plan, budget uint64) (*Runner, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if budget == 0 {
		return nil, fmt.Errorf("sample: zero budget")
	}
	if err := sim.StartChunked(budget); err != nil {
		return nil, err
	}
	r := &Runner{sim: sim, plan: plan, budget: budget, st: Stats{Plan: plan, Budget: budget}}
	r.enter(segFF)
	return r, nil
}

// enter switches to a segment kind, setting the simulator phase and the
// boundary countdown. Zero-length segments fall through immediately.
// Entering segFF opens a new period: with Jitter the period's skip is
// split around the warm+measure block at a stratified pseudo-random
// point; without it the whole skip leads and the tail is empty.
func (r *Runner) enter(kind int) {
	for {
		var n uint64
		switch kind {
		case segFF:
			ffLen := r.plan.Skip - r.plan.Warm
			r.ffHead = ffLen
			if r.plan.Jitter {
				r.ffHead = jitterOffset(r.period, ffLen)
			}
			r.period++
			n = r.ffHead
		case segWarm:
			n = r.plan.Warm
		case segMeasure:
			n = r.plan.Detail
		case segFFTail:
			n = r.plan.Skip - r.plan.Warm - r.ffHead
		}
		if n > 0 {
			r.seg = kind
			r.segLeft = n
			switch kind {
			case segMeasure:
				r.sim.SetPhase(pipeline.PhaseMeasure)
				r.snap = r.sim.Snapshot()
				r.unitFrom = r.pos
			case segFF, segFFTail:
				r.sim.SetPhase(pipeline.PhaseFastForward)
			case segWarm:
				r.sim.SetPhase(pipeline.PhaseWarm)
			}
			return
		}
		kind = (kind + 1) % segKinds
	}
}

// leave closes the current segment at an actual boundary, capturing the
// measurement unit if one was open, and enters the next segment.
func (r *Runner) leave() {
	if r.seg == segMeasure {
		end := r.sim.Snapshot()
		iv := IntervalStats{
			Index:  len(r.st.Intervals),
			Start:  r.unitFrom,
			Instrs: r.pos - r.unitFrom,
			Res:    deltaResult(end, r.snap),
		}
		r.st.Intervals = append(r.st.Intervals, iv)
		if r.adaptiveDone() {
			r.done = true
			return
		}
	}
	r.enter((r.seg + 1) % segKinds)
}

// adaptiveDone applies the stopping rule after a unit closes.
func (r *Runner) adaptiveDone() bool {
	p := r.plan
	if p.TargetRelCI <= 0 {
		return false
	}
	min := p.MinIntervals
	if min < 2 {
		min = 2
	}
	if len(r.st.Intervals) < min {
		return false
	}
	ci := r.ipcCISoFar()
	return ci.RelHalf() <= p.TargetRelCI
}

func (r *Runner) ipcCISoFar() stats.CI {
	xs := make([]float64, len(r.st.Intervals))
	for i := range r.st.Intervals {
		xs[i] = r.st.Intervals[i].Res.IPC()
	}
	return stats.CI95(xs)
}

// Phase returns the simulator phase the next fed trace will run under.
func (r *Runner) Phase() pipeline.Phase { return r.sim.Phase() }

// Done reports that the runner wants no more input: the budget is
// consumed or adaptive sampling met its target. Feeding a done runner
// is a harmless no-op (Feed returns done immediately) — groups keep
// fanning the shared stream to live members while finished ones sit
// dormant.
func (r *Runner) Done() bool { return r.done }

// FFRemaining returns how many instructions remain in the current
// fast-forward segment, or 0 when the runner is not fast-forwarding.
func (r *Runner) FFRemaining() uint64 {
	if r.done || (r.seg != segFF && r.seg != segFFTail) {
		return 0
	}
	return r.segLeft
}

// RawFFRemaining returns how many upcoming instructions the driver may
// skip without touching the simulator (SkipRaw): the portion of the
// fast-forward more than ModelWarm ahead of the next detailed warm-up,
// or the whole remainder with WarmModel off. 0 means every skipped
// instruction runs through the warm model. Members of a group share
// plan, budget and input, so their schedules agree on this value in
// lockstep. Note the two raw modes differ in what the driver
// does with the stretch: WarmModel=false drivers skip segmentation
// itself (and reset the segmenter at warm entry), while a ModelWarm
// driver keeps segmenting — traces stay aligned with the full run's —
// and merely withholds them from the simulator.
func (r *Runner) RawFFRemaining() uint64 {
	if r.done || (r.seg != segFF && r.seg != segFFTail) {
		return 0
	}
	if !r.plan.WarmModel {
		return r.segLeft
	}
	if r.plan.ModelWarm == 0 {
		return 0
	}
	d := r.distToWarm()
	if d <= r.plan.ModelWarm {
		return 0
	}
	raw := d - r.plan.ModelWarm
	if raw > r.segLeft {
		raw = r.segLeft
	}
	return raw
}

// distToWarm returns how many fast-forward instructions remain before
// the next detailed warm-up begins. In a period's tail that distance
// crosses into the next period's head, whose length is already
// determined (enter(segFF) incremented r.period, so r.period indexes
// the upcoming stratum).
func (r *Runner) distToWarm() uint64 {
	d := r.segLeft
	if r.seg == segFFTail {
		ffLen := r.plan.Skip - r.plan.Warm
		next := ffLen
		if r.plan.Jitter {
			next = jitterOffset(r.period, ffLen)
		}
		d += next
	}
	return d
}

// Feed processes one demanded trace under the current phase, advancing
// the schedule. tr and dyns are borrowed for the call and must come, in
// order, from a segmenter with the simulator's selection rules (see
// Runner doc). done reports the runner wants no more input.
func (r *Runner) Feed(tr *trace.Trace, dyns []emulator.Dyn) (done bool, err error) {
	if r.done {
		return true, nil
	}
	k := uint64(len(dyns))
	if k > r.budget-r.pos {
		// The trace completes beyond the budget: drop it, like
		// pipeline.Simulator.RunTrace. An open measurement unit is incomplete and
		// is discarded, never partially reported.
		r.pos = r.budget
		r.done = true
		return true, nil
	}
	if r.plan.EngineWarm > 0 && (r.seg == segFF || r.seg == segFFTail) {
		r.sim.SetFFObserve(r.plan.ObservePrecon && r.distToWarm() <= r.plan.EngineWarm)
	}
	if _, err := r.sim.RunTrace(tr, dyns); err != nil {
		return true, err
	}
	r.pos += k
	switch r.seg {
	case segMeasure:
		r.st.MeasuredInstrs += k
	case segFF, segFFTail:
		r.st.FFInstrs += k
	case segWarm:
		r.st.WarmInstrs += k
	}
	if k >= r.segLeft {
		r.segLeft = 0
		r.leave()
	} else {
		r.segLeft -= k
	}
	if r.pos == r.budget {
		r.done = true
	}
	return r.done, nil
}

// SkipRaw advances the schedule across n instructions withheld from the
// simulator — a raw fast-forward stretch (see RawFFRemaining). n must
// not exceed FFRemaining(): raw skips are only valid inside a
// fast-forward segment. A skip reaching past the budget is clamped to
// it and finishes the run, like a trace that would complete beyond it.
func (r *Runner) SkipRaw(n uint64) error {
	if n == 0 {
		return nil
	}
	if r.done || (r.seg != segFF && r.seg != segFFTail) {
		return fmt.Errorf("sample: SkipRaw outside a fast-forward segment")
	}
	if n > r.segLeft {
		return fmt.Errorf("sample: SkipRaw %d exceeds segment remainder %d", n, r.segLeft)
	}
	if n > r.budget-r.pos {
		n = r.budget - r.pos
	}
	r.pos += n
	r.st.FFInstrs += n
	r.segLeft -= n
	if r.segLeft == 0 {
		r.leave()
	}
	if r.pos == r.budget {
		r.done = true
	}
	return nil
}

// Finish seals the run: an open measurement unit is discarded
// (incomplete units are never reported), the simulator's chunked run is
// closed, and the sampled statistics — intervals, aggregate, per-phase
// counts — are returned. Finish may be called once.
func (r *Runner) Finish() (*Stats, error) {
	if r.finished {
		return nil, fmt.Errorf("sample: Finish called twice")
	}
	r.finished = true
	r.done = true
	if _, err := r.sim.Finish(); err != nil {
		return nil, err
	}
	r.st.Streamed = r.pos
	for _, iv := range r.st.Intervals {
		r.st.Aggregate = addResult(r.st.Aggregate, iv.Res)
	}
	return &r.st, nil
}
