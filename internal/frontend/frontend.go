// Package frontend composes the fetch side of the trace processor from
// explicit components: trace suppliers probed in priority order behind
// one contract, a slow-path i-cache port arbitrated between demand
// fetch and the preconstruction engine, and a composition root that
// owns supplier probe order and fill routing.
//
// The paper's three frontends — trace cache only, trace cache +
// preconstruction buffers, and the adaptive unified store — differ only
// in which suppliers New wires and which store is primary; the per-trace
// supply loop (Supply) has no knowledge of the concrete design. A new
// frontend variant (a different prefetcher, another probe order, more
// suppliers) is a new TraceSupplier wired in New, not a new special
// case in the simulator.
package frontend

import (
	"tracepre/internal/bpred"
	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/mem"
	"tracepre/internal/precon"
	"tracepre/internal/program"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
)

// TraceSupplier is a store that can supply a demanded trace. Probe is
// the fetch-side contract every trace store implements natively
// (TraceCache, Buffers, Adaptive and its PBView): it returns the
// resident trace on a hit, with the supplier's own lookup semantics —
// LRU stamping for the trace cache, consuming Take for the buffers,
// in-place role flip for the adaptive facet. promote is set when the
// caller must copy the hit into the primary supplier (split-design
// buffers, per §3.1); suppliers that are the primary, or that promote
// internally, return promote=false.
//
// Contains probes residency without perturbing LRU state or statistics;
// it is the same probe the preconstruction engine's fill side uses
// (precon.TraceStore) to avoid buffering already-cached traces.
type TraceSupplier interface {
	Probe(id trace.ID) (tr *trace.Trace, hit, promote bool)
	Contains(id trace.ID) bool
}

// PrimarySupplier is the first supplier in probe order: the store that
// owns demand fills (slow-path builds and promoted buffer hits) and
// answers wrong-path peeks for speculative replay.
type PrimarySupplier interface {
	TraceSupplier
	Fill(tr *trace.Trace)
	Peek(id trace.ID) (*trace.Trace, bool)
}

// The slow path's predictor sizes, which no experiment varies.
const (
	BimodalEntries = 1 << 14 // bimodal branch predictor counters
	RASDepth       = 16      // return address stack entries
	TargetEntries  = 1 << 10 // indirect target buffer entries
)

// Config selects and sizes the frontend's components. It is the
// fetch-side slice of pipeline.Config; pipeline wires it so the nine
// experiment drivers need no knowledge of the decomposition.
type Config struct {
	// Select is the trace-selection rule set: the demand path's, which
	// the preconstruction engine builds its traces under.
	Select trace.SelectConfig

	TraceCache tracecache.Config
	Buffers    tracecache.BufferConfig // Entries == 0 disables preconstruction
	// AdaptivePartition replaces the split trace cache + buffers with
	// one unified store whose partition adapts (requires precon).
	AdaptivePartition bool

	ICache cache.Config

	// Slow-path model parameters.
	SlowFetchWidth    int
	MispredictPenalty int

	// Mem is the memory hierarchy behind the L1s, shared with the
	// backend. Demand i-fetch misses and the preconstruction engine's
	// stolen fetches both route through its I-side. Required.
	Mem *mem.Hierarchy

	// Pred holds the next-trace predictor tables the frontend predicts
	// through, with a view of its own. Frontends fed the same traces in
	// lockstep may share one set (see tpred.Tables). Required.
	Pred *tpred.Tables

	// Slow holds the slow path's bimodal counters and indirect target
	// buffer, which the engine reads too. Frontends fed the same traces
	// in lockstep may share one set (see SlowTables). Required.
	Slow *SlowTables

	// Traces is the table the frontend and its engine intern traces
	// into, through a handle of the frontend's own. Frontends of one
	// group may share it (see trace.Store). Required.
	Traces *trace.Store

	// Precon configures the engine.
	Precon precon.Config
}

// PreconEnabled reports whether the preconstruction engine is wired.
func (c Config) PreconEnabled() bool { return c.Buffers.Entries > 0 }

// SupplierStats counts one supplier's share of trace supply as seen by
// the frontend's probe loop (the supplier's own store counters remain
// available through its Stats method).
type SupplierStats struct {
	Name   string
	Probes uint64 // times the probe loop reached this supplier
	Hits   uint64 // probes that supplied the demanded trace
	Fills  uint64 // traces inserted into the supplier's store
}

// HitRate returns Hits/Probes (0 when never probed).
func (s SupplierStats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Probes)
}

// SlowPathStats counts the conventional fetch path's work building
// traces no supplier could provide.
type SlowPathStats struct {
	Builds             uint64 // demanded traces built by the slow path
	Instrs             uint64 // instructions supplied by the i-cache
	ICAccesses         uint64 // slow-path line accesses
	ICMisses           uint64 // slow-path i-cache misses
	InstrsFromICMisses uint64 // instructions supplied under a miss
	BranchMisp         uint64 // bimodal/RAS/target mispredicts
}

// Stats is the frontend's own measurement of trace supply: who supplied
// each demanded trace, what the slow path cost, and how the shared
// i-cache port was shared.
type Stats struct {
	Suppliers []SupplierStats
	Slow      SlowPathStats
	Port      precon.PortStats
}

// SupplierHitRate returns supplier i's hit rate (0 when absent).
func (s Stats) SupplierHitRate(i int) float64 {
	if i < 0 || i >= len(s.Suppliers) {
		return 0
	}
	return s.Suppliers[i].HitRate()
}

// supplierSlot binds a wired supplier to its native counters, fixed at
// wiring time so the supply loop stays free of design conditionals.
type supplierSlot struct {
	name     string
	s        TraceSupplier
	counters func() tracecache.Stats
}

// Supply reports how one demanded trace was supplied.
type Supply struct {
	// Trace is the supplied trace: the resident copy on a hit, the
	// interned build on a miss.
	Trace *trace.Trace

	ID       trace.ID
	Hit      bool
	Supplier int // probe-order index of the supplying store; -1 slow path

	// FetchLat is the frontend fetch latency (1 on a hit, the slow
	// path's modeled latency on a miss); SlowBusy the cycles the miss
	// held the i-cache port.
	FetchLat uint64
	SlowBusy uint64

	// Next-trace prediction for this slot.
	PredID  trace.ID
	PredOK  bool
	PredHit bool
}

// Frontend is the composition root: it owns the supplier probe order,
// routes fills, runs the slow path on misses, and hosts the shared
// fetch-side state (predictors, trace table handle, precon engine,
// port). Its next-trace predictor is a view, and the tables behind it,
// like the slow path's bimodal table and indirect target buffer and
// the trace table behind its handle, may be shared with other
// frontends (Config.Pred, Config.Slow, Config.Traces); the return
// address stack is always its own.
type Frontend struct {
	cfg    Config
	im     *program.Image
	traces *trace.Handle

	suppliers []supplierSlot
	primary   PrimarySupplier

	ic    *cache.Cache
	port  *precon.SlowPathPort
	slow  *SlowTables // private or shared
	slowN uint64      // traces this frontend has consumed from slow
	ras   *bpred.RAS
	pred  *tpred.Predictor // view over private or shared tables
	eng   *precon.Engine

	// partition reports the adaptive store's feedback state; nil for
	// split designs.
	partition func() (share float64, adjusts uint64)

	stats Stats
}

// New wires a frontend: the design's suppliers in probe order, the
// primary fill target, the arbitrated slow-path port, the predictors,
// and (when buffers are configured) the preconstruction engine behind
// the port.
func New(im *program.Image, cfg Config) (*Frontend, error) {
	f := &Frontend{cfg: cfg, im: im, traces: cfg.Traces.NewHandle(), slow: cfg.Slow, slowN: cfg.Slow.n}
	var err error
	if f.ic, err = cache.New(cfg.ICache); err != nil {
		return nil, err
	}
	f.port = precon.NewSlowPathPort(f.ic, cfg.Mem)
	if f.ras, err = bpred.NewRAS(RASDepth); err != nil {
		return nil, err
	}
	f.pred = cfg.Pred.View()

	// Supplier wiring: probe order is primary first, preconstruction
	// buffers second. Everything design-specific is bound here, once.
	var engTC precon.TraceStore
	var engBuf precon.BufferStore
	if cfg.AdaptivePartition {
		unified := tracecache.Config{
			Entries: cfg.TraceCache.Entries + cfg.Buffers.Entries,
			Assoc:   cfg.TraceCache.Assoc,
		}
		adpt, err := tracecache.NewAdaptive(unified)
		if err != nil {
			return nil, err
		}
		pb := adpt.PBView()
		f.primary = adpt
		f.addSupplier(supplierSlot{name: "trace-cache", s: adpt, counters: adpt.Stats})
		f.addSupplier(supplierSlot{name: "precon-buffers", s: pb, counters: adpt.PBStatsView})
		f.partition = func() (float64, uint64) {
			return adpt.TargetPBShare(), adpt.Adjustments()
		}
		engTC, engBuf = adpt, pb
	} else {
		tcc, err := tracecache.New(cfg.TraceCache)
		if err != nil {
			return nil, err
		}
		f.primary = tcc
		f.addSupplier(supplierSlot{name: "trace-cache", s: tcc, counters: tcc.Stats})
		engTC = tcc
		if cfg.PreconEnabled() {
			bufc, err := tracecache.NewBuffers(cfg.Buffers)
			if err != nil {
				return nil, err
			}
			f.addSupplier(supplierSlot{name: "precon-buffers", s: bufc, counters: bufc.Stats})
			engBuf = bufc
		}
	}
	if cfg.PreconEnabled() {
		f.eng, err = precon.New(cfg.Precon, cfg.Select, im, f.slow.bim, f.slow.itb, f.port, engTC, engBuf, f.traces)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *Frontend) addSupplier(s supplierSlot) {
	f.suppliers = append(f.suppliers, s)
	f.stats.Suppliers = append(f.stats.Suppliers, SupplierStats{Name: s.name})
}

// Supply answers one trace demand: predict the next trace, notify the
// engine of the demand fetch, probe the suppliers in order, and on a
// full miss build the trace through the slow path and fill the primary
// supplier. tr is borrowed from the caller's segmenter — the miss path
// interns it before it escapes into a store. now is the cycle the fetch
// begins (the caller's fetch clock, taken before any redirect penalty —
// an approximation the hierarchy tolerates, see mem.Hierarchy); the slow
// path stamps its memory-level requests relative to it.
func (f *Frontend) Supply(tr *trace.Trace, dyns []emulator.Dyn, now uint64) Supply {
	f.slow.sync(f.slowN)
	id := tr.ID()
	sup := Supply{Trace: tr, ID: id, Supplier: -1}
	sup.PredID, sup.PredOK = f.pred.Predict()
	sup.PredHit = sup.PredOK && sup.PredID == id

	if f.eng != nil {
		f.eng.OnDemandFetch(id.Start)
	}

	for i := range f.suppliers {
		f.stats.Suppliers[i].Probes++
		got, hit, promote := f.suppliers[i].s.Probe(id)
		if !hit {
			continue
		}
		f.stats.Suppliers[i].Hits++
		if promote {
			// §3.1: a buffer hit is copied into the trace cache (the
			// supplier consumed its entry).
			f.primary.Fill(got)
		}
		sup.Trace = got
		sup.Hit = true
		sup.Supplier = i
		sup.FetchLat = 1 // single-cycle trace cache read
		return sup
	}

	// Full miss: the conventional fetch path builds the trace and the
	// primary supplier retains it.
	sup.FetchLat, sup.SlowBusy = f.slowPath(tr, dyns, now)
	tr = f.traces.Intern(tr)
	f.primary.Fill(tr)
	sup.Trace = tr
	return sup
}

// SupplyFast is the sampled fast-forward counterpart of Supply+Retire:
// it keeps every trainable fetch-side structure current — supplier
// contents, i-cache tags, bimodal/indirect-target predictors, the
// next-trace predictor — while touching no timing state and no
// statistics. It never calls Predict (which counts a prediction), never
// charges the slow-path port, and fills missing traces directly: the
// supplier occupancy a measurement unit starts from must match a full
// run's, but the cycles spent getting there are exactly what the skip
// elides. The return-address stack is not warmed — it is read only on
// the slow path, whose transient state a warm unit rebuilds anyway.
// observePrecon additionally keeps the preconstruction engine live
// across the skip: demand-fetch notices, the retiring stream, and a
// granted idle allowance (the caller's estimate of the port cycles the
// engine would have stolen — fast-forward models no timing, so the
// caller derives it from the trace length and a nominal IPC). Without
// it the skip would drain the buffers through probe-consume while the
// engine never refills them, and every measurement unit would start
// from a preconstruction state no full run ever exhibits. now is the
// caller's pseudo-clock for the port (monotonic with the real cycle
// clock across phase switches).
func (f *Frontend) SupplyFast(tr *trace.Trace, dyns []emulator.Dyn, now uint64, idle int, observePrecon bool) {
	id := tr.ID()
	if f.eng != nil && observePrecon {
		f.eng.OnDemandFetch(id.Start)
	}
	hit := false
	for i := range f.suppliers {
		got, h, promote := f.suppliers[i].s.Probe(id)
		if !h {
			continue
		}
		if promote {
			f.primary.Fill(got)
		}
		hit = true
		break
	}
	if !hit {
		// Touch the i-cache lines the slow path would have fetched
		// through — tag and recency only, no port, no counters.
		lineMask := ^(uint32(f.ic.Config().LineBytes) - 1)
		last := ^uint32(0)
		for _, pc := range tr.PCs {
			if la := pc & lineMask; la != last {
				f.ic.Warm(la)
				last = la
			}
		}
		// tr stays the caller's borrowed trace below: it is this
		// demand's own, Succ included, where a table entry keeps its
		// first interner's.
		f.primary.Fill(f.traces.Intern(tr))
	}
	f.slow.train(f.slowN, dyns)
	f.slowN++
	f.pred.Train(tr)
	if f.eng != nil && observePrecon {
		f.port.SetClock(now)
		if idle > 0 {
			f.eng.Step(idle)
		}
		f.eng.Observe(tr)
	}
}

// ReplayWrongPath feeds the predicted-but-wrong trace's dispatch to the
// preconstruction engine as a speculative path, then flushes it — the
// machine dispatched the wrong trace before the mispredicted branch
// resolved, and the engine's start-point stack observed that path. The
// caller invokes this only on a next-trace misprediction (PredOK and
// not PredHit). A wrong trace that marks no start point pushes nothing,
// and a flush with nothing speculative stacked changes nothing the
// stack rules read, so both are skipped.
func (f *Frontend) ReplayWrongPath(predID, actual trace.ID) {
	if f.eng == nil {
		return
	}
	wrong, ok := f.primary.Peek(predID)
	if !ok || predID == actual || wrong.Starts == 0 {
		return
	}
	f.eng.ObserveSpeculative(wrong)
	f.eng.FlushSpeculation()
}

// Retire closes one demanded trace's slot: grant the engine the cycles
// the slow path left the port idle, let it observe the retiring trace,
// record the resolved stream's outcomes for the slow-path predictors
// (SlowTables trains them before the next trace), and train the
// next-trace predictor with the actual trace. demand is the caller's
// borrowed trace, not a stored copy: it is this demand's own, Succ
// included, where the table entry Supply returned keeps its first
// interner's. now is the cycle the idle interval starts (the
// previous trace's retirement); the port clock walks forward from it as
// units are granted, timestamping the engine's memory-level requests.
func (f *Frontend) Retire(demand *trace.Trace, idle int64, dyns []emulator.Dyn, now uint64) {
	f.slow.sync(f.slowN)
	if f.eng != nil {
		f.port.SetClock(now)
		if idle > 0 {
			f.eng.Step(int(idle))
		}
		f.eng.Observe(demand)
	}
	f.slow.record(dyns)
	f.slowN++
	f.pred.Update(demand)
}

// Stats snapshots the frontend's supply, slow-path and port counters.
func (f *Frontend) Stats() Stats {
	st := f.stats
	st.Suppliers = make([]SupplierStats, len(f.stats.Suppliers))
	copy(st.Suppliers, f.stats.Suppliers)
	for i := range st.Suppliers {
		st.Suppliers[i].Fills = f.suppliers[i].counters().Inserts
	}
	st.Port = f.port.Stats()
	return st
}

// PredStats returns the next-trace predictor's counters.
func (f *Frontend) PredStats() tpred.Stats { return f.pred.Stats() }

// PreconStats returns the engine's counters (zero value when disabled).
func (f *Frontend) PreconStats() precon.Stats {
	if f.eng == nil {
		return precon.Stats{}
	}
	return f.eng.Stats()
}

// StoreStats returns this frontend's use of the trace table.
func (f *Frontend) StoreStats() trace.StoreStats { return f.traces.Stats() }

// TotalICMisses returns all i-cache misses, demand and engine-induced.
func (f *Frontend) TotalICMisses() uint64 { return f.ic.Stats().Misses }

// AdaptiveStats returns the adaptive partition's feedback state; ok is
// false for split designs.
func (f *Frontend) AdaptiveStats() (share float64, adjusts uint64, ok bool) {
	if f.partition == nil {
		return 0, 0, false
	}
	share, adjusts = f.partition()
	return share, adjusts, true
}

// Engine exposes the preconstruction engine (nil when disabled).
func (f *Frontend) Engine() *precon.Engine { return f.eng }
