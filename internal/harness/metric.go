package harness

import (
	"tracepre/internal/pipeline"
	"tracepre/internal/stats"
)

// Metric is a named extractor turning one cell's Result into the
// number a table reports. Naming the extraction keeps experiment
// declarations readable and lets generic renderers label columns.
type Metric struct {
	Name string
	Fn   func(pipeline.Result) float64
}

// Of applies the metric.
func (m Metric) Of(r pipeline.Result) float64 { return m.Fn(r) }

// The paper's metrics, ready for experiment declarations.
var (
	// TCMissPerKI is trace cache misses per 1000 committed
	// instructions (Figure 5's y-axis).
	TCMissPerKI = Metric{"tc-miss/KI", pipeline.Result.TCMissPerKI}
	// ICacheInstrsPerKI is instructions supplied by the i-cache per
	// 1000 instructions (Table 1).
	ICacheInstrsPerKI = Metric{"icache-instr/KI", pipeline.Result.ICacheInstrsPerKI}
	// ICacheMissesPerKI is total i-cache misses per 1000 instructions,
	// including preconstruction-induced ones (Table 2).
	ICacheMissesPerKI = Metric{"icache-miss/KI", pipeline.Result.ICacheMissesPerKI}
	// InstrsFromICMissesPerKI is instructions supplied under i-cache
	// misses per 1000 instructions (Table 3).
	InstrsFromICMissesPerKI = Metric{"icache-miss-instr/KI", pipeline.Result.InstrsFromICMissesPerKI}
	// IPC is retired instructions per cycle (full timing runs).
	IPC = Metric{"IPC", pipeline.Result.IPC}
	// PredAccuracy is the next-trace predictor's accuracy.
	PredAccuracy = Metric{"pred-accuracy", func(r pipeline.Result) float64 {
		return r.Pred.Accuracy()
	}}
	// TCHitRate is the primary supplier's (trace cache's) hit rate as
	// seen by the frontend's probe loop: hits over demanded traces.
	TCHitRate = Metric{"tc-hit-rate", func(r pipeline.Result) float64 {
		return r.Frontend.SupplierHitRate(0)
	}}
	// PBHitRate is the second supplier's (preconstruction buffers')
	// hit rate — probed only on primary misses, so hits over those.
	PBHitRate = Metric{"pb-hit-rate", func(r pipeline.Result) float64 {
		return r.Frontend.SupplierHitRate(1)
	}}
	// SlowPathPortContention is the fraction of the preconstruction
	// engine's line-fetch requests the arbitrated i-cache port denied
	// (per-idle-cycle budget spent): how far the engine's appetite
	// exceeds the idle port cycles the paper assumes it can steal.
	SlowPathPortContention = Metric{"slowpath-port-contention", func(r pipeline.Result) float64 {
		return r.Frontend.Port.Contention()
	}}
	// PortIdleCyclesPerKI is idle slow-path port cycles granted to the
	// engine per 1000 committed instructions.
	PortIdleCyclesPerKI = Metric{"port-idle-cycles/KI", func(r pipeline.Result) float64 {
		return stats.PerKI(r.Frontend.Port.IdleCycles, r.Instructions)
	}}
	// L2MissRate is the memory level's miss rate: misses over the L1
	// misses that reached it. Always 0 under the default fixed level,
	// which models a perfect L2.
	L2MissRate = Metric{"l2-miss-rate", func(r pipeline.Result) float64 {
		return r.Memory.MissRate()
	}}
	// L2MSHRStallPerKI is cycles requests waited for a free miss-status
	// register per 1000 committed instructions — the cost of finite miss
	// tracking in the modeled L2.
	L2MSHRStallPerKI = Metric{"l2-mshr-stall-cycles/KI", func(r pipeline.Result) float64 {
		return stats.PerKI(r.Memory.MSHRStallCycles, r.Instructions)
	}}
	// PreconL2Share is the preconstruction engine's fraction of the
	// memory level's accesses: how much shared-L2 traffic the "free"
	// idle-cycle prefetching generates.
	PreconL2Share = Metric{"precon-l2-share", func(r pipeline.Result) float64 {
		return r.Memory.PreconShare()
	}}
)

// SpeedupPct is the derived speedup-vs-baseline-cell metric: the
// percent cycle-count speedup of cell over base for the same work.
func SpeedupPct(base, over *Cell) float64 {
	return stats.Speedup(base.Result.Cycles, over.Result.Cycles)
}

// ReductionPct is the percent reduction of a metric from base to over.
func ReductionPct(m Metric, base, over *Cell) float64 {
	return stats.Reduction(m.Of(base.Result), m.Of(over.Result))
}
