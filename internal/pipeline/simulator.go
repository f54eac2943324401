package pipeline

import (
	"errors"
	"fmt"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/frontend"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/precon"
	"tracepre/internal/program"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
)

// Result aggregates everything a run measured. The accessor methods
// compute the units the paper reports.
type Result struct {
	Instructions uint64
	Traces       uint64
	Cycles       uint64

	// Trace supply.
	TCHits         uint64 // demanded traces found in the trace cache
	PreconSupplied uint64 // demanded traces found in the buffers
	TCMisses       uint64 // demanded traces built by the slow path

	// Slow path / instruction cache.
	SlowPathInstrs     uint64 // instructions supplied by the i-cache
	SlowICAccesses     uint64 // slow-path line accesses
	SlowICMisses       uint64 // slow-path i-cache misses
	InstrsFromICMisses uint64 // instructions supplied under an i-cache miss
	TotalICMisses      uint64 // including preconstruction-induced misses
	SlowBranchMisp     uint64 // slow-path bimodal/RAS/target mispredicts

	// Backend (full timing only).
	Loads        uint64
	DCacheMisses uint64
	ARBForwards  uint64 // loads ordered behind an in-flight same-word store

	// Adaptive partition (when Config.AdaptivePartition): the final
	// buffer-share target and how often the feedback loop moved it.
	AdaptivePBShare float64
	AdaptiveAdjusts uint64

	// Windows holds per-window supply statistics when
	// Config.WindowInstrs > 0: one entry per window of committed
	// instructions, in execution order (phase behaviour shows up as
	// periodic miss-rate swings).
	Windows []WindowStat

	Pred   tpred.Stats
	Precon precon.Stats

	// Frontend reports the composed fetch side's own accounting:
	// per-supplier probe/hit/fill counts, slow-path work, and the
	// demand/engine sharing of the i-cache port (frontend.Stats).
	Frontend frontend.Stats

	// Memory reports the level behind the L1s: per-port (I-side, D-side,
	// precon) access and miss counts, MSHR merges and stalls, fill-
	// bandwidth stalls, and the engine fetches the hierarchy refused.
	// Behind the default perfect L2 only the access counters move.
	Memory mem.LevelStats

	// Intern reports this simulator's use of the trace table: its
	// interns, those of traces it had interned before, and the bytes of
	// its distinct traces (see trace.StoreStats). It reads the same
	// whether the table is the group's or the simulator's own.
	Intern trace.StoreStats
}

// WindowStat is one measurement window of a run.
type WindowStat struct {
	Instructions   uint64
	TCMisses       uint64
	PreconSupplied uint64
}

// MissPerKI returns the window's trace-cache miss rate.
func (w WindowStat) MissPerKI() float64 {
	if w.Instructions == 0 {
		return 0
	}
	return float64(w.TCMisses) * 1000 / float64(w.Instructions)
}

// TCMissPerKI returns trace cache misses per 1000 instructions, the
// paper's Figure 5 metric. A demanded trace supplied by the
// preconstruction buffers is a hit.
func (r Result) TCMissPerKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.TCMisses) * 1000 / float64(r.Instructions)
}

// ICacheInstrsPerKI returns instructions supplied by the i-cache per
// 1000 instructions (Table 1).
func (r Result) ICacheInstrsPerKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.SlowPathInstrs) * 1000 / float64(r.Instructions)
}

// ICacheMissesPerKI returns total i-cache misses per 1000 instructions,
// including misses induced by the preconstruction engine (Table 2).
func (r Result) ICacheMissesPerKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.TotalICMisses) * 1000 / float64(r.Instructions)
}

// InstrsFromICMissesPerKI returns instructions supplied by i-cache
// misses per 1000 instructions (Table 3).
func (r Result) InstrsFromICMissesPerKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.InstrsFromICMisses) * 1000 / float64(r.Instructions)
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Phase selects how the simulator processes demanded traces during a
// sampled run (internal/sample). The zero value is PhaseMeasure — full
// detail with statistics — so non-sampled runs behave identically with
// no configuration.
type Phase uint8

const (
	// PhaseMeasure runs full detail and accumulates statistics. It is
	// the only phase a non-sampled run ever sees. A sampled run's
	// detailed warm-up runs in it too: the sampling layer discards the
	// warm-up's statistics by differencing Snapshot results at
	// measurement boundaries, so warm activity never needs per-counter
	// guards on the hot path.
	PhaseMeasure Phase = iota
	// PhaseFastForward runs functional-plus-trainable-state only: the
	// frontend's fast supply keeps suppliers, cache tags and predictors
	// current, but no timing advances and no statistics move.
	PhaseFastForward
)

// Simulator is one configured trace processor bound to a program image.
// The fetch side — trace suppliers, slow-path port, predictors, and the
// preconstruction engine — lives in frontend.Frontend; the simulator
// contributes wiring and timing: fetch/retire bookkeeping, the optional
// full-timing backend, and windowed measurement.
type Simulator struct {
	cfg Config
	im  *program.Image

	fe  *frontend.Frontend
	dc  *cache.Cache
	be  *backend
	mem *mem.Hierarchy // shared by I-side, D-side, and precon fetches

	res   Result
	ran   bool      // Run/RunStream/StartChunked consumed this simulator
	ck    *chunkRun // budget accounting (nil outside StartChunked..Finish)
	phase Phase

	fetchFree   uint64
	lastRetire  uint64
	lastResolve uint64

	// Observed port-idle calibration from detailed phases: idleSum is
	// the engine idle granted, elapsedSum the retire-to-retire cycles it
	// was granted over. Fast-forward scales its nominal drain by their
	// ratio so the engine advances at the machine's own measured pace
	// rather than as if the port were always free.
	idleSum    uint64
	elapsedSum uint64

	window WindowStat // accumulating current window (WindowInstrs > 0)
}

// ErrRunTwice is returned when Run, RunStream or StartChunked is called
// on a Simulator that already ran: the predictors, caches and timing
// state are warm from the first run, so a second pass would silently
// measure a machine the paper never describes.
var ErrRunTwice = errors.New("pipeline: Run may be called only once per Simulator")

// ErrNotChunked is returned by RunTrace and Finish when no chunked run
// is open (StartChunked not called, or Finish already sealed the run).
var ErrNotChunked = errors.New("pipeline: no chunked run in progress (call StartChunked first)")

// chunkRun is the committed-instruction budget accounting of a chunked
// run.
type chunkRun struct {
	n      uint64 // committed instructions consumed (completed traces only)
	budget uint64
}

// New builds a simulator for the image: a frontend composed from the
// config's fetch-side slice, plus the optional full-timing backend. It
// is a group of one (NewGroup), so its next-trace predictor tables and
// its trace table are its own.
func New(im *program.Image, cfg Config) (*Simulator, error) {
	sims, err := NewGroup(im, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return sims[0], nil
}

// NewGroup builds one simulator per config for a group whose members
// are fed the same demanded traces in lockstep: every member consumes a
// trace (RunTrace, or a sample.Runner's Feed over it) before any member
// gets the next. The next-trace predictor learns from that trace
// sequence alone, so members with equal Pred configs share one set of
// predictor tables, which train once per trace; each member keeps its
// own predictor counters (Result.Pred). The slow path's bimodal table
// and indirect target buffer learn from the same committed stream, so
// all members share one set, and each reads it in the state its own
// copy would hold (frontend.SlowTables). Feeding members out of
// lockstep panics in the shared tables. All members intern their
// traces into one append-only table (trace.Store), each through a
// handle of its own, so a trace two members retain is stored once. The
// full-timing members share one per-trace analysis table: each distinct
// trace they dispatch is analyzed, and preprocessed, once for the
// group. Members run on one goroutine, as the shared tables require.
func NewGroup(im *program.Image, cfgs []Config) ([]*Simulator, error) {
	tables := map[tpred.Config]*tpred.Tables{}
	slow, err := frontend.NewSlowTables()
	if err != nil {
		return nil, err
	}
	traces := trace.NewStore()
	var analyses *analysisTable
	sims := make([]*Simulator, len(cfgs))
	for i, cfg := range cfgs {
		if err = cfg.Validate(); err != nil {
			return nil, err
		}
		t := tables[cfg.Pred]
		if t == nil {
			t = tpred.NewTables(cfg.Pred)
			tables[cfg.Pred] = t
		}
		if cfg.FullTiming && analyses == nil {
			analyses = newAnalysisTable()
		}
		if sims[i], err = newMember(im, cfg, t, slow, traces, analyses); err != nil {
			return nil, err
		}
	}
	return sims, nil
}

// newMember builds one validated simulator whose frontend predicts
// through the given next-trace and slow-path tables and interns into
// the given trace table, and whose backend, under full timing, analyzes
// traces through the given analysis table.
func newMember(im *program.Image, cfg Config, tables *tpred.Tables, slow *frontend.SlowTables,
	traces *trace.Store, analyses *analysisTable) (*Simulator, error) {
	s := &Simulator{cfg: cfg, im: im}
	h, err := mem.New(cfg.Mem, cfg.L2Lat)
	if err != nil {
		return nil, err
	}
	s.mem = h
	fcfg := cfg.frontendConfig()
	fcfg.Mem = h
	fcfg.Pred = tables
	fcfg.Slow = slow
	fcfg.Traces = traces
	fe, err := frontend.New(im, fcfg)
	if err != nil {
		return nil, err
	}
	s.fe = fe
	if cfg.FullTiming {
		if s.dc, err = cache.New(DCache); err != nil {
			return nil, err
		}
		s.be = newBackend(s.dc, h, analyses)
	}
	return s, nil
}

// Frontend exposes the composed fetch side for diagnostics and tests.
func (s *Simulator) Frontend() *frontend.Frontend { return s.fe }

// SetPhase switches the simulator's processing phase. The sampling
// runner calls it at phase boundaries; phase changes take effect at the
// next demanded trace, so they land exactly on trace boundaries.
func (s *Simulator) SetPhase(p Phase) { s.phase = p }

// Phase returns the current processing phase.
func (s *Simulator) Phase() Phase { return s.phase }

// SetFFObserve overrides Config.FFObservePrecon mid-run: whether
// fast-forwarded traces keep the preconstruction engine live. The
// sampling runner toggles this to confine engine stepping to the tail
// of each fast-forward stretch (sample.Plan.EngineWarm); it has no
// effect outside PhaseFastForward.
func (s *Simulator) SetFFObserve(on bool) { s.cfg.FFObservePrecon = on }

// Snapshot folds the component statistics into a Result without sealing
// the run: the sampling layer differences Snapshot results taken at
// measurement-unit boundaries to capture per-interval statistics while
// warm and fast-forward activity between units cancels out. Valid
// during a chunked run; the returned value is independent of later
// progress.
func (s *Simulator) Snapshot() Result { return s.fold() }

// PreconEngine exposes the preconstruction engine (nil when disabled)
// for diagnostics and the anatomy example.
func (s *Simulator) PreconEngine() *precon.Engine { return s.fe.Engine() }

// Run records up to budget committed instructions of the simulator's
// image and runs the recording through RunStream. Run may be called
// once per Simulator; a second call returns ErrRunTwice.
func (s *Simulator) Run(budget uint64) (Result, error) {
	if s.ran {
		return s.res, ErrRunTwice
	}
	st, err := emulator.Record(s.im, budget)
	if err != nil {
		return s.res, fmt.Errorf("pipeline: %w", err)
	}
	return s.RunStream(st, budget)
}

// RunStream drives the simulator from a recorded stream of the image it
// was built for: the stream is decoded into chunks (decode overlapping
// consumption), one ChunkSegmenter cuts them into demanded traces, and
// each trace goes through RunTrace. Like Run, RunStream may be called
// once per Simulator.
func (s *Simulator) RunStream(st *emulator.Stream, budget uint64) (Result, error) {
	if err := s.StartChunked(budget); err != nil {
		return s.res, err
	}
	seg := trace.NewChunkSegmenter(s.cfg.Select)
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for done := false; !done; {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 && !done {
			used, tr, dyns := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			var err error
			if done, err = s.RunTrace(tr, dyns); err != nil {
				return s.res, err
			}
		}
	}
	if err := cr.Err(); err != nil {
		return s.res, fmt.Errorf("pipeline: %w", err)
	}
	return s.Finish()
}

// StartChunked opens a resumable chunked run: subsequent RunTrace calls
// feed the segmented stream trace by trace and Finish seals the
// measurements. It claims the simulator's single run — a second Start
// (or any Run* call) returns ErrRunTwice.
func (s *Simulator) StartChunked(budget uint64) error {
	if s.ran {
		return ErrRunTwice
	}
	s.ran = true
	s.ck = &chunkRun{budget: budget}
	return nil
}

// RunTrace consumes one demanded trace. tr and dyns must come, in
// order, from a segmenter with this simulator's selection rules over
// its stream, and are borrowed only for the call — which is what lets
// one segmentation feed every simulator of a group that shares a
// SelectConfig. done reports that the budget is exhausted: a trace
// completing beyond the remaining budget is dropped and the run ends,
// so the caller may stop feeding and call Finish (further traces are
// ignored).
func (s *Simulator) RunTrace(tr *trace.Trace, dyns []emulator.Dyn) (done bool, err error) {
	ck := s.ck
	if ck == nil {
		return false, ErrNotChunked
	}
	k := uint64(len(dyns))
	if k > ck.budget-ck.n {
		ck.n = ck.budget
		return true, nil
	}
	ck.n += k
	s.onTrace(tr, dyns)
	return ck.n == ck.budget, nil
}

// Finish seals a chunked run: the unfinished partial trace (if any) is
// dropped — it never became a demanded trace — and the component
// statistics fold into the returned Result.
func (s *Simulator) Finish() (Result, error) {
	if s.ck == nil {
		return s.res, ErrNotChunked
	}
	s.ck = nil
	s.finalize()
	return s.res, nil
}

// finalize folds the component statistics into the Result after the
// stream is exhausted.
func (s *Simulator) finalize() { s.res = s.fold() }

// fold combines the running Result with the current component counters
// into a complete Result, without mutating any simulator state. Both
// the end-of-run finalize and the mid-run Snapshot are this one fold.
func (s *Simulator) fold() Result {
	res := s.res
	fs := s.fe.Stats()
	res.Frontend = fs
	res.TCHits = fs.Suppliers[0].Hits
	res.PreconSupplied = 0
	for _, sp := range fs.Suppliers[1:] {
		res.PreconSupplied += sp.Hits
	}
	res.TCMisses = fs.Slow.Builds
	res.SlowPathInstrs = fs.Slow.Instrs
	res.SlowICAccesses = fs.Slow.ICAccesses
	res.SlowICMisses = fs.Slow.ICMisses
	res.InstrsFromICMisses = fs.Slow.InstrsFromICMisses
	res.SlowBranchMisp = fs.Slow.BranchMisp
	res.TotalICMisses = s.fe.TotalICMisses()
	res.Precon = s.fe.PreconStats()
	res.Pred = s.fe.PredStats()
	if s.be != nil {
		res.Loads = s.be.loads
		res.DCacheMisses = s.be.dcacheMisses
		res.ARBForwards = s.be.arbForwards
	}
	if share, adjusts, ok := s.fe.AdaptiveStats(); ok {
		res.AdaptivePBShare = share
		res.AdaptiveAdjusts = adjusts
	}
	res.Intern = s.fe.StoreStats()
	res.Memory = s.mem.Stats()
	return res
}

// onTrace processes one demanded trace — supplied by the frontend's
// arbitration loop — and charges its timing. tr is borrowed from the
// segmenter (valid only for this call); the frontend's miss path
// interns it before it escapes into a store.
func (s *Simulator) onTrace(tr *trace.Trace, dyns []emulator.Dyn) {
	if s.phase == PhaseFastForward {
		s.fastTrace(tr, dyns)
		return
	}
	n := tr.Len()
	s.res.Traces++
	s.res.Instructions += uint64(n)
	if s.cfg.WindowInstrs > 0 {
		s.window.Instructions += uint64(n)
	}

	sup := s.fe.Supply(tr, dyns, s.fetchFree)
	if sup.Hit {
		if sup.Supplier > 0 {
			s.window.PreconSupplied++
		}
	} else {
		s.window.TCMisses++
	}

	// Frontend timing: redirects delay the fetch after a next-trace
	// misprediction until the offending branch resolved.
	fetchStart := s.fetchFree
	if !sup.PredHit {
		redirect := s.lastResolve + uint64(s.cfg.MispredictPenalty)
		if redirect > fetchStart {
			fetchStart = redirect
		}
	}
	fetchDone := fetchStart + sup.FetchLat
	s.fetchFree = fetchDone

	var retire, resolve uint64
	if s.be != nil {
		preprocessed := s.cfg.PreprocEnabled && sup.Hit
		retire, resolve = s.be.dispatch(sup.Trace, dyns, fetchDone, preprocessed)
	} else {
		drain := uint64(float64(n)/s.cfg.FrontendIPC + 0.5)
		if drain == 0 {
			drain = 1
		}
		base := fetchDone
		if s.lastRetire > base {
			base = s.lastRetire
		}
		retire = base + drain
		resolve = retire
	}
	prevRetire := s.lastRetire
	s.lastRetire = retire
	s.lastResolve = resolve
	s.res.Cycles = retire

	// On a next-trace misprediction the machine dispatched the wrong
	// (predicted) trace before the branch resolved; the engine's stack
	// observes that wrong path and flushes it at recovery.
	if !sup.PredHit && sup.PredOK {
		s.fe.ReplayWrongPath(sup.PredID, sup.ID)
	}

	// Grant the engine the cycles the slow path left the port idle,
	// let it observe the dispatch stream, and train the predictors.
	// The idle interval starts at the previous retirement, so that is
	// where the port clock walks from.
	idle := int64(retire-prevRetire) - int64(sup.SlowBusy)
	if idle > 0 {
		s.idleSum += uint64(idle)
	}
	s.elapsedSum += retire - prevRetire
	s.fe.Retire(tr, idle, dyns, prevRetire)

	if s.cfg.WindowInstrs > 0 && s.window.Instructions >= s.cfg.WindowInstrs {
		s.res.Windows = append(s.res.Windows, s.window)
		s.window = WindowStat{}
	}
}

// fastTrace processes one demanded trace in the fast-forward phase: the
// frontend's fast supply keeps every trainable fetch-side structure
// warm, the data cache (full timing only) keeps its tags and recency
// current, and no statistics move — interval deltas never see this
// activity. The cycle clock advances nominally (trace length over the
// frontend IPC): the skipped instructions took time in the machine
// being modelled, and keeping the clock monotonic lets the engine's
// port timestamps and the detailed warm-up resume without time running
// backwards. The remaining timing-dependent state (backend occupancy,
// slow-path transients) is deliberately left for the detailed warm-up.
func (s *Simulator) fastTrace(tr *trace.Trace, dyns []emulator.Dyn) {
	drain := uint64(float64(len(dyns))/s.cfg.FrontendIPC + 0.5)
	if drain == 0 {
		drain = 1
	}
	prev := s.lastRetire
	s.lastRetire = prev + drain
	s.lastResolve = s.lastRetire
	s.fetchFree = s.lastRetire
	// The engine's idle allowance is the nominal drain scaled by the
	// idle fraction the detailed phases actually observed — granting the
	// whole drain would let the engine run as if the port were never
	// contended, racing ahead of anything a full-detail run exhibits.
	idle := drain
	if s.elapsedSum > 0 {
		idle = uint64(float64(drain) * float64(s.idleSum) / float64(s.elapsedSum))
	}
	s.fe.SupplyFast(tr, dyns, prev, int(idle), s.cfg.FFObservePrecon)
	if s.dc != nil {
		for i := range dyns {
			d := &dyns[i]
			switch d.Inst.Op {
			case isa.OpLoad, isa.OpStore:
				s.dc.Warm(d.MemAddr)
			}
		}
	}
}
