package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"tracepre/internal/harness"
)

// reconcilePct is how much of the traced run's wall clock the layers
// may leave unaccounted before the traced run fails. The tracer reads
// the clock once between consecutive calls, so this catches only time
// spent between the timed calls: the tracer's own bookkeeping.
const reconcilePct = 5.0

// overheadLimitPct is how much longer the traced groups may take than
// the untraced sweep on the same single worker, the one comparison
// against a clock the tracer does not read, before the traced run
// fails. precon.Config.MeasureOverhead, on in the traced run only, and
// the tracer's clock reads together cost up to about half the sweep.
const overheadLimitPct = 100.0

// containers are the spans that only group layer spans; their self
// time is the tracer's own overhead, not a layer.
var containers = map[string]bool{"run": true, "group": true, "chunk": true}

// runTraced makes one traced run of the workload, then one untraced
// run on a single worker to check the traced Results against and to
// price the tracing, and reports the per-layer ledger.
func runTraced(ctx context.Context, o options) (result, error) {
	w := o.workload
	m := w.matrix(o.seed, o.budget)

	gc0 := readGC()
	t := newTracer(o.budget, w.plan(o.budget))
	cells, chk, err := t.run(w, o.seed)
	gc1 := readGC()
	if err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	chk.merge(checkGrid(&harness.Grid{Matrix: m, Cells: cells}, o.budget))

	var split time.Time
	progress := func(p harness.Progress) {
		if p.Done == 0 && split.IsZero() {
			split = time.Now()
		}
	}
	passes0 := harness.DecodePasses()
	g, err := harness.Run(ctx, m, w.options(o.budget, 1, progress)...)
	end := time.Now()
	if err != nil {
		return result{}, fmt.Errorf("untraced run: %w", err)
	}
	passes := harness.DecodePasses() - passes0
	chk.merge(checkGrid(g, o.budget))
	for i := range cells {
		c := &cells[i]
		chk.add(sameCell(c, &g.Cells[i]), "%s/%s: traced and untraced Results differ", c.Bench, c.Point.Name)
	}
	groups := len(w.benches) * w.programs
	chk.add(passes == uint64(groups), "untraced run made %d decode passes over %d groups", passes, groups)

	wall := t.l.spans[t.root].busy
	var layers time.Duration
	for name, d := range t.l.selfTimes() {
		if !containers[name] {
			layers += d
		}
	}
	unaccounted := pct(float64(wall-layers), float64(wall))
	chk.add(math.Abs(unaccounted) <= reconcilePct,
		"ledger: the layers leave %.2f%% of the traced run's %v unaccounted (limit %v%%)", unaccounted, wall, reconcilePct)

	v := t.values(cells)
	v["ledger.unaccounted_pct"] = unaccounted
	untracedSweep := end.Sub(split)
	overhead := pct(float64(t.l.busy("group")-untracedSweep), float64(untracedSweep))
	chk.add(overhead <= overheadLimitPct,
		"tracing: the traced groups took %.1f%% longer than the untraced sweep (limit %v%%)", overhead, overheadLimitPct)
	v["trace.overhead_pct"] = overhead
	v["harness.decode_passes"] = float64(passes) / float64(groups)
	v["runtime.gc_cycles"] = gc1.cycles - gc0.cycles
	v["runtime.gc_cpu_pct"] = pct(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	if err := t.l.write(spanPath(o)); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	return result{
		attempted: chk.attempted,
		failed:    chk.failed,
		problems:  chk.problems,
		metrics:   pick(layerMetrics(), v),
	}, nil
}

// pick reports every defined metric, 0 where values has none.
func pick(defs []metricDef, values map[string]float64) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{d.name, d.unit, values[d.name]}
	}
	return out
}

// values computes the ledger's per-layer metrics from the spans and
// the traced cells.
func (t *tracer) values(cells []harness.Cell) map[string]float64 {
	l := t.l
	ns := func(name string) float64 { return float64(l.busy(name)) }
	v := map[string]float64{
		"workload.generate_s":               l.busy("workload.generate").Seconds(),
		"emulator.record_ns_per_instr":      ratio(ns("emulator.record"), float64(t.recorded)),
		"emulator.stream_bytes_per_instr":   ratio(float64(t.streamBytes), float64(t.recorded)),
		"emulator.decode_ns_per_instr":      ratio(ns("emulator.decode"), float64(t.drained)),
		"emulator.decode_wait_ns_per_instr": ratio(ns("emulator.decode_wait"), float64(t.groupInstrs)),
		"trace.segment_ns_per_instr":        ratio(ns("trace.segment"), float64(t.segmented)),
		"pipeline.new_ms":                   float64(l.busy("pipeline.new")) / 1e6,
		"pipeline.finish_ms":                float64(l.busy("pipeline.finish")) / 1e6,
	}
	var stepNs, stepInstrs float64
	for point, n := range t.fed {
		d := ns("pipeline.step." + point)
		v[stepMetric(point)] = ratio(d, float64(n))
		stepNs += d
		stepInstrs += float64(n)
	}
	v["pipeline.step_ns_per_instr"] = ratio(stepNs, stepInstrs)

	if base, pre := t.solo[soloPoints[0]], t.solo[soloPoints[1]]; base.instrs > 0 && pre.instrs > 0 {
		v["preproc.delta_ns_per_instr"] = float64(pre.ns)/float64(pre.instrs) - float64(base.ns)/float64(base.instrs)
		v["preproc.delta_allocs_per_kinstr"] = 1000 * (float64(pre.allocs)/float64(pre.instrs) - float64(base.allocs)/float64(base.instrs))
	}

	if t.plan != nil {
		var all float64
		for ph := 0; ph < numPhases; ph++ {
			all += float64(t.phaseInstrs[ph])
		}
		v["sample.raw_ns_per_instr"] = ratio(float64(t.phaseNs[phaseRaw]), float64(t.phaseInstrs[phaseRaw]))
		v["sample.ffwarm_ns_per_instr"] = ratio(float64(t.phaseNs[phaseFFWarm]), float64(t.phaseInstrs[phaseFFWarm]))
		v["sample.detail_ns_per_instr"] = ratio(float64(t.phaseNs[phaseDetail]), float64(t.phaseInstrs[phaseDetail]))
		v["sample.raw_share"] = ratio(float64(t.phaseInstrs[phaseRaw]), all)
	}

	var s cellSums
	for i := range cells {
		s.add(&cells[i])
	}
	for k, x := range s.values() {
		v[k] = x
	}
	return v
}

// cellSums pools simulated counts over the cells that have the layer.
type cellSums struct {
	preconInstrs, engineNs, built, dup, supplied float64
	l2Instrs, l2Acc, l2Miss, mshrStall, l2Precon float64
	tcProbes, tcHits, pbProbes, pbHits           float64
	portAsked, portStalls                        float64
	interns, internHits, slabBytes, cells        float64
	units                                        float64
}

func (s *cellSums) add(c *harness.Cell) {
	r := c.Result
	n := float64(r.Instructions)
	s.cells++
	if c.Point.Cfg.PreconEnabled() {
		s.preconInstrs += n
		s.engineNs += float64(r.Precon.EngineNs())
		s.built += float64(r.Precon.TracesBuilt)
		s.dup += float64(r.Precon.TracesDuplicate)
		s.supplied += float64(r.PreconSupplied)
	}
	if c.Point.Cfg.Mem.ModelL2 {
		s.l2Instrs += n
		s.l2Acc += float64(r.Memory.Accesses)
		s.l2Miss += float64(r.Memory.Misses)
		s.mshrStall += float64(r.Memory.MSHRStallCycles)
		s.l2Precon += float64(r.Memory.PreconAccesses)
	}
	sup := r.Frontend.Suppliers
	if len(sup) > 0 {
		s.tcProbes += float64(sup[0].Probes)
		s.tcHits += float64(sup[0].Hits)
	}
	if len(sup) > 1 {
		s.pbProbes += float64(sup[1].Probes)
		s.pbHits += float64(sup[1].Hits)
	}
	s.portAsked += float64(r.Frontend.Port.PreconFetches + r.Frontend.Port.PreconStalls)
	s.portStalls += float64(r.Frontend.Port.PreconStalls)
	s.interns += float64(r.Intern.Interns)
	s.internHits += float64(r.Intern.Hits)
	s.slabBytes += float64(r.Intern.SlabBytes)
	if c.Sample != nil {
		s.units += float64(len(c.Sample.Intervals))
	}
}

func (s *cellSums) values() map[string]float64 {
	return map[string]float64{
		"precon.engine_ns_per_instr":       ratio(s.engineNs, s.preconInstrs),
		"precon.traces_built_per_kinstr":   1000 * ratio(s.built, s.preconInstrs),
		"precon.useful_ratio":              ratio(s.supplied, s.built),
		"precon.duplicate_ratio":           ratio(s.dup, s.built),
		"mem.l2_miss_rate":                 ratio(s.l2Miss, s.l2Acc),
		"mem.mshr_stall_cycles_per_kinstr": 1000 * ratio(s.mshrStall, s.l2Instrs),
		"mem.precon_l2_share":              ratio(s.l2Precon, s.l2Acc),
		"frontend.tc_hit_rate":             ratio(s.tcHits, s.tcProbes),
		"frontend.pb_hit_rate":             ratio(s.pbHits, s.pbProbes),
		"frontend.port_contention":         ratio(s.portStalls, s.portAsked),
		"trace.store_hit_rate":             ratio(s.internHits, s.interns),
		"trace.store_slab_kib":             ratio(s.slabBytes, s.cells) / 1024,
		"sample.units":                     s.units,
	}
}

// gcStats is a reading of the runtime's GC counters.
type gcStats struct {
	cycles, gcCPU, totalCPU float64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcStats{
		cycles:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func pct(num, den float64) float64 { return 100 * ratio(num, den) }
