// Package precon implements trace preconstruction, the paper's central
// contribution: a mechanism that watches the processor's dispatch stream
// for loop back edges and procedure calls, "leaps ahead" to the loop
// exit or return point, fetches static instructions through the
// otherwise-idle slow-path instruction cache port, and constructs traces
// ahead of need into dedicated preconstruction buffers.
//
// The structure mirrors §3 of the paper:
//
//   - a start-point stack (depth 16, plus 4 entries remembering recently
//     completed regions) prioritizes region start points newest-first;
//   - four region slots, each owning a 256-instruction fill-only
//     prefetch cache and a worklist of trace start points;
//   - four trace constructors walk the static code from start points,
//     following strongly-biased branches one way only (consulting the
//     shared bimodal predictor), forking at weakly-biased branches via
//     an internal decision stack, and terminating at unresolved
//     indirect jumps;
//   - completed traces go to the preconstruction buffers unless already
//     in the trace cache; the buffers' region-priority replacement is
//     what bounds per-region effort.
//
// Alignment: regions rooted at return points start construction exactly
// at the return address (demanded traces start there too, because
// traces end at returns). Regions rooted at loop exits first perform a
// short pre-walk that reproduces the tail of the processor's trace
// containing the final backward branch — counting instructions past the
// branch to the next multiple-of-AlignMod boundary — and start
// construction at that boundary, where the processor's next demanded
// trace will begin.
//
// Because the engine monitors every dispatched instruction of every
// simulated configuration, its constant factors multiply across entire
// sweeps. The hot path is therefore allocation-free in the steady
// state: the start-point stack is backed by an address index so the
// per-instruction membership probe is O(1), regions (with their
// open-addressed start-point sets and prefetch-line bitsets) are pooled
// and reset rather than reallocated, and the dispatch stream arrives a
// trace at a time (Observe) with its start-point events marked when the
// trace was built (trace.Trace.Starts). Walks append straight-line runs
// of the image (program.Image.Runs) in one step.
package precon

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"tracepre/internal/bpred"
	"tracepre/internal/isa"
	"tracepre/internal/program"
	"tracepre/internal/trace"
)

// TraceStore is what the engine needs from the primary trace cache: a
// residency probe, used to avoid buffering traces already cached.
// It is the fill-side counterpart of the frontend's TraceSupplier
// contract (internal/frontend), which the same stores implement for
// the fetch side.
type TraceStore interface {
	Contains(trace.ID) bool
}

// BufferStore is what the engine needs from the preconstruction
// buffers: residency probes and priority-tagged insertion. Insert
// returning false (replacement refused) terminates the inserting
// region.
type BufferStore interface {
	Contains(trace.ID) bool
	Insert(tr *trace.Trace, region uint64) bool
}

// The engine's fixed structure, which no experiment varies. The first
// two are the paper's (§3.2, §3.3.1); the rest bound the model's work
// where the paper gives no figure.
const (
	CompletedSlots     = 4  // recently completed regions remembered (§3.2)
	NumRegions         = 4  // prefetch caches, one per active region (§3.3.1)
	WorklistCap        = 8  // trace start points queued per region
	MaxTracesPerStart  = 8  // traces enumerated per start point
	MaxTracesPerRegion = 64 // safety bound per region
	StepInstrs         = 4  // instructions a constructor advances per work unit
	PreWalkCap         = 16 // instruction budget for loop-exit boundary walk
	CallStackDepth     = 16 // constructor-internal call stack
)

// Config parameterizes what the sensitivity and ablation studies vary.
// Defaults follow §3 and §4.1. The prefetch caches' line is the shared
// instruction cache's line.
type Config struct {
	StackDepth      int // region start-point stack depth (16)
	PrefetchInstrs  int // instructions per prefetch cache (256)
	NumConstructors int // parallel trace constructors (4)
	DecisionDepth   int // weak branches forked per start point (4)

	// MeasureOverhead times the engine's Observe and Step calls
	// into Stats.ObserveNs/StepNs, letting sweeps report per-cell
	// engine overhead without a profiler. Off by default: the clock
	// reads cost a few percent of engine time.
	MeasureOverhead bool

	// ResolveIndirects is an extension beyond the paper: instead of
	// abandoning a path at an indirect jump ("the target is unknown",
	// §2.1), the constructor consults the slow path's indirect target
	// buffer (shared through New) for the likely target and continues
	// the region there. Trace selection is unchanged — traces still end
	// at the indirect jump — only the successor start point becomes
	// known.
	ResolveIndirects bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		StackDepth:      16,
		PrefetchInstrs:  256,
		NumConstructors: 4,
		DecisionDepth:   4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.StackDepth <= 0 || c.NumConstructors <= 0 {
		return fmt.Errorf("precon: stack %d constructors %d", c.StackDepth, c.NumConstructors)
	}
	if c.PrefetchInstrs <= 0 || c.DecisionDepth < 0 {
		return fmt.Errorf("precon: prefetch %d decisions %d", c.PrefetchInstrs, c.DecisionDepth)
	}
	return nil
}

// PrefetchLines returns how many lineBytes-byte lines — the shared
// instruction cache's — a prefetch cache holds. A prefetch cache
// smaller than one line is an error. lineBytes must be positive.
func (c Config) PrefetchLines(lineBytes int) (int, error) {
	lineCap := c.PrefetchInstrs * isa.WordSize / lineBytes
	if lineCap <= 0 {
		return 0, fmt.Errorf("precon: prefetch cache (%d instrs) smaller than one %dB line",
			c.PrefetchInstrs, lineBytes)
	}
	return lineCap, nil
}

// Kind distinguishes the two region start-point constructs of §3.2.
type Kind uint8

const (
	// ReturnPoint start points are the instruction after a call: the
	// address execution resumes at when the procedure returns.
	ReturnPoint Kind = iota
	// LoopExit start points are the fall-through of a backward branch:
	// the address execution reaches when the loop finally exits.
	LoopExit
)

func (k Kind) String() string {
	if k == ReturnPoint {
		return "return-point"
	}
	return "loop-exit"
}

// StartPoint is one entry of the region start-point stack.
type StartPoint struct {
	Addr uint32
	Kind Kind
}

// stackEntry is a stacked start point plus its speculation mark: points
// pushed from wrong-path dispatch are removed when the misprediction
// resolves ("start points are removed from the stack if they
// correspond to misspeculation", §3.2). Retired entries are
// tombstoned (dead) rather than spliced out, so removal never shifts
// the tail; compaction reclaims tombstones in bulk.
type stackEntry struct {
	StartPoint
	spec bool
	dead bool
}

// Stats counts engine activity.
type Stats struct {
	StackPushes      uint64
	StackDedups      uint64 // pushes suppressed by the top-of-stack rule
	StackOverflows   uint64 // oldest entries discarded
	StackCaughtUp    uint64 // entries removed because execution arrived
	SpecPushes       uint64 // pushes from wrong-path dispatch
	SpecFlushed      uint64 // speculative entries removed at resolution
	RegionsActivated uint64
	RegionsCompleted uint64
	RegionsCaughtUp  uint64 // terminated because the processor arrived
	RegionsExhausted uint64 // terminated by prefetch-cache fill
	RegionsBounded   uint64 // terminated by buffer-replacement rejection
	CompletedSkips   uint64 // start points skipped (recently completed)
	TracesBuilt      uint64
	TracesDuplicate  uint64 // already in trace cache or buffers
	LinesFetched     uint64
	ICacheMisses     uint64 // engine-induced instruction cache misses
	PreWalkAborts    uint64
	WorkUnits        uint64

	// ObserveNs and StepNs accumulate wall-clock time spent in
	// Observe and Step when Config.MeasureOverhead is set (0
	// otherwise) — the engine's share of a cell's simulation cost.
	ObserveNs uint64
	StepNs    uint64
}

// EngineNs returns the total measured engine time (MeasureOverhead).
func (s Stats) EngineNs() uint64 { return s.ObserveNs + s.StepNs }

// Engine is the trace preconstruction unit.
type Engine struct {
	cfg  Config
	sel  trace.SelectConfig
	im   *program.Image
	bim  *bpred.Bimodal
	port *SlowPathPort
	tc   TraceStore
	buf  BufferStore

	// lineMask aligns addresses to the slow-path i-cache's line, which
	// is also the prefetch caches' line (port.LineBytes()-1), resolved
	// once so the walk loop does plain address arithmetic with no port
	// call. lineCap is how many lines one prefetch cache holds.
	lineMask uint32
	lineCap  int

	// stack holds start points newest-last; entries retire by
	// tombstone. stackLive counts non-dead entries and stackIdx
	// indexes their addresses, so the per-instruction catch-up probe in
	// Observe is a single hash lookup instead of a stack scan.
	stack     []stackEntry
	stackLive int
	stackIdx  addrIndex

	completed [CompletedSlots]uint32 // ring of recently completed region starts
	compNext  int

	regions     []*region
	activeCount int       // regions with active == true
	freeList    []*region // completed regions awaiting reuse
	ctors       []*constructor
	regionSeq   uint64
	stats       Stats

	// retireCheck is set when a region's walker count drops to zero —
	// the only transition that can leave a region quiescent — so step
	// scans for retirable regions only on units where one may exist.
	retireCheck bool

	// traceHook, when set, observes every constructed trace with the
	// start point of the region that built it (diagnostics, examples).
	// The trace is borrowed: it is valid only for the duration of the
	// call and must be Cloned to retain.
	traceHook func(tr *trace.Trace, sp StartPoint)

	// itb resolves indirect-jump targets when ResolveIndirects is on.
	itb *bpred.TargetBuffer

	// store interns completed traces before they escape into the
	// buffers (see trace.Store).
	store *trace.Store
}

// SetTraceHook installs an observer called for every trace the engine
// constructs (including duplicates). The trace is borrowed — valid only
// during the call; Clone it to retain. Pass nil to remove the hook.
func (e *Engine) SetTraceHook(fn func(tr *trace.Trace, sp StartPoint)) {
	e.traceHook = fn
}

// region is one active preconstruction region (one prefetch cache plus
// its worklist). Regions are pooled: completeRegion resets the sets and
// returns the region to the engine's free list, so steady-state
// activation allocates nothing.
type region struct {
	seq      uint64
	start    StartPoint
	worklist []uint32
	wlHead   int     // consumed prefix of worklist
	seen     u32set  // trace start points already queued
	lines    lineSet // prefetch cache contents (line addresses)
	built    int
	walkers  int // constructors currently working this region
	active   bool
	// prewalked is false for loop-exit regions until the boundary walk
	// has produced the first trace start point.
	prewalked bool
}

// pending returns the number of unconsumed worklist entries.
func (r *region) pending() int { return len(r.worklist) - r.wlHead }

// pushWork queues a trace start point and marks it seen.
func (r *region) pushWork(addr uint32) {
	r.worklist = append(r.worklist, addr)
	r.seen.add(addr)
}

// popWork consumes the oldest queued trace start point.
func (r *region) popWork() uint32 {
	v := r.worklist[r.wlHead]
	r.wlHead++
	return v
}

// New builds an engine that constructs traces under the selection
// rules sel, the demand path's, sharing the image, the slow path's
// bimodal predictor and indirect target buffer (read only under
// ResolveIndirects), the slow-path i-cache port, the trace cache, the
// preconstruction buffers and the intern store with the frontend. The
// port is the engine's only route to instruction lines; demand fetch
// shares it. deliver retains completed traces through store.Intern — a
// refcount bump and content check when an identical trace is resident —
// and the buffers' Insert takes ownership of that reference, so they
// must hold references in the same store.
func New(cfg Config, sel trace.SelectConfig, im *program.Image, bim *bpred.Bimodal, itb *bpred.TargetBuffer,
	port *SlowPathPort, tc TraceStore, buf BufferStore, store *trace.Store) (*Engine, error) {
	if err := errors.Join(cfg.Validate(), sel.Validate()); err != nil {
		return nil, err
	}
	lineCap, err := cfg.PrefetchLines(port.LineBytes())
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		sel:      sel,
		im:       im,
		bim:      bim,
		itb:      itb,
		port:     port,
		tc:       tc,
		buf:      buf,
		store:    store,
		lineMask: uint32(port.LineBytes() - 1),
		lineCap:  lineCap,
		regions:  make([]*region, NumRegions),
		ctors:    make([]*constructor, cfg.NumConstructors),
	}
	for i := range e.ctors {
		e.ctors[i] = newConstructor(e)
	}
	return e, nil
}

// lineAddr aligns pc to the slow-path i-cache's line.
func (e *Engine) lineAddr(pc uint32) uint32 { return pc &^ e.lineMask }

// Observe monitors a dispatched-and-retiring trace for region
// start-point events, instruction by instruction in order: execution
// arriving at a stacked start point retires it, and the instructions
// marked in tr.Starts push theirs (calls their return address, taken
// backward branches their fall-through, the loop exit).
func (e *Engine) Observe(tr *trace.Trace) {
	if e.cfg.MeasureOverhead {
		t0 := time.Now()
		e.observe(tr)
		e.stats.ObserveNs += uint64(time.Since(t0))
		return
	}
	e.observe(tr)
}

func (e *Engine) observe(tr *trace.Trace) {
	marks := tr.Starts
	for k, pc := range tr.PCs {
		// The address index rejects the no-match case — almost every
		// instruction — with one probe.
		if e.stackLive != 0 && e.stackIdx.contains(pc) {
			e.retireStacked(pc)
		}
		if marks&1 != 0 {
			e.pushMark(tr, k, false)
		}
		marks >>= 1
	}
}

// pushMark pushes the start point of tr's marked instruction k.
func (e *Engine) pushMark(tr *trace.Trace, k int, spec bool) {
	kind := LoopExit
	if tr.Insts[k].IsCall() {
		kind = ReturnPoint
	}
	e.push(StartPoint{Addr: tr.PCs[k] + isa.WordSize, Kind: kind}, spec)
}

// retireStacked tombstones the newest live stack entry at addr.
func (e *Engine) retireStacked(addr uint32) {
	for i := len(e.stack) - 1; i >= 0; i-- {
		en := &e.stack[i]
		if !en.dead && en.Addr == addr {
			en.dead = true
			e.stackLive--
			e.stackIdx.dec(addr)
			e.stats.StackCaughtUp++
			break
		}
	}
	e.compactStack()
}

// compactStack drops tombstones once they outnumber live entries,
// preserving entry order.
func (e *Engine) compactStack() {
	dead := len(e.stack) - e.stackLive
	if dead <= e.stackLive || dead == 0 {
		return
	}
	kept := e.stack[:0]
	for _, en := range e.stack {
		if !en.dead {
			kept = append(kept, en)
		}
	}
	e.stack = kept
}

// ObserveSpeculative monitors a wrong-path dispatched trace: the start
// points it marks enter the stack (and may displace older entries) but
// are marked speculative and removed when FlushSpeculation reports the
// misprediction resolved. Wrong-path instructions never retire entries.
func (e *Engine) ObserveSpeculative(tr *trace.Trace) {
	for m := uint(tr.Starts); m != 0; m &= m - 1 {
		e.pushMark(tr, bits.TrailingZeros(m), true)
	}
}

// FlushSpeculation removes every speculative entry (mispredict
// recovery).
func (e *Engine) FlushSpeculation() {
	kept := e.stack[:0]
	for _, en := range e.stack {
		if en.dead {
			continue
		}
		if en.spec {
			e.stats.SpecFlushed++
			e.stackIdx.dec(en.Addr)
			e.stackLive--
			continue
		}
		kept = append(kept, en)
	}
	e.stack = kept
}

// push adds a start point, deduplicating against the top of the stack
// and discarding the oldest entry on overflow.
func (e *Engine) push(sp StartPoint, spec bool) {
	// Dedup against the newest live entry.
	for i := len(e.stack) - 1; i >= 0; i-- {
		if e.stack[i].dead {
			continue
		}
		if e.stack[i].Addr == sp.Addr {
			e.stats.StackDedups++
			return
		}
		break
	}
	if e.stackLive == e.cfg.StackDepth {
		// Tombstone the oldest live entry.
		for i := range e.stack {
			if !e.stack[i].dead {
				e.stack[i].dead = true
				e.stackIdx.dec(e.stack[i].Addr)
				e.stackLive--
				break
			}
		}
		e.stats.StackOverflows++
		e.compactStack()
	}
	e.stack = append(e.stack, stackEntry{StartPoint: sp, spec: spec})
	e.stackLive++
	e.stackIdx.inc(sp.Addr)
	e.stats.StackPushes++
	if spec {
		e.stats.SpecPushes++
	}
}

// popStack removes and returns the newest live start point.
func (e *Engine) popStack() (StartPoint, bool) {
	for n := len(e.stack); n > 0; n = len(e.stack) {
		en := e.stack[n-1]
		e.stack = e.stack[:n-1]
		if en.dead {
			continue
		}
		e.stackLive--
		e.stackIdx.dec(en.Addr)
		return en.StartPoint, true
	}
	return StartPoint{}, false
}

// StackDepth returns the number of pending start points (for tests).
func (e *Engine) StackDepth() int { return e.stackLive }

// OnDemandFetch notifies the engine that the processor is fetching a
// trace starting at pc. If pc is one of a region's trace start points,
// the processor has caught up with that region — the fill unit is now
// building its traces directly — and its preconstruction terminates.
func (e *Engine) OnDemandFetch(pc uint32) {
	for _, r := range e.regions {
		if r != nil && r.active && (r.start.Addr == pc || r.seen.has(pc)) {
			e.completeRegion(r, &e.stats.RegionsCaughtUp)
		}
	}
}

// completeRegion retires a region, freeing its slot and remembering its
// start so it is not immediately re-preconstructed. The region's sets
// are reset and the region returned to the pool for the next
// activation.
func (e *Engine) completeRegion(r *region, reason *uint64) {
	if !r.active {
		return
	}
	r.active = false
	e.activeCount--
	e.stats.RegionsCompleted++
	if reason != nil {
		*reason++
	}
	e.completed[e.compNext] = r.start.Addr
	e.compNext = (e.compNext + 1) % CompletedSlots
	for _, c := range e.ctors {
		if c.reg == r {
			c.reset()
		}
	}
	for i, rr := range e.regions {
		if rr == r {
			e.regions[i] = nil
		}
	}
	r.worklist = r.worklist[:0]
	r.wlHead = 0
	r.seen.reset()
	r.lines.reset()
	e.freeList = append(e.freeList, r)
}

func (e *Engine) recentlyCompleted(addr uint32) bool {
	for _, a := range &e.completed {
		if a != 0 && a == addr {
			return true
		}
	}
	return false
}

// newRegion takes a pooled region or allocates one with its sets sized
// for this engine's image and line size.
func (e *Engine) newRegion() *region {
	if n := len(e.freeList); n > 0 {
		r := e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
		return r
	}
	r := &region{worklist: make([]uint32, 0, WorklistCap)}
	r.seen.init(WorklistCap * 2)
	r.lines.initLines(e.lineAddr(e.im.Base), e.im.End(), uint(bits.OnesCount32(e.lineMask)))
	return r
}

// activateRegions pops start points into free region slots.
func (e *Engine) activateRegions() {
	for i := range e.regions {
		if e.regions[i] != nil {
			continue
		}
		var sp StartPoint
		ok := false
		for {
			sp, ok = e.popStack()
			if !ok {
				break
			}
			if e.recentlyCompleted(sp.Addr) {
				e.stats.CompletedSkips++
				ok = false
				continue
			}
			if e.alreadyActive(sp.Addr) {
				e.stats.CompletedSkips++
				ok = false
				continue
			}
			break
		}
		if !ok {
			return
		}
		e.regionSeq++
		r := e.newRegion()
		r.seq = e.regionSeq
		r.start = sp
		r.built = 0
		r.active = true
		e.activeCount++
		r.prewalked = sp.Kind == ReturnPoint
		if sp.Kind == ReturnPoint {
			r.pushWork(sp.Addr)
		}
		e.regions[i] = r
		e.stats.RegionsActivated++
	}
}

func (e *Engine) alreadyActive(addr uint32) bool {
	for _, r := range e.regions {
		if r != nil && r.active && r.start.Addr == addr {
			return true
		}
	}
	return false
}

// fetchLine brings a line into a region's prefetch cache through the
// shared instruction cache port. It returns false when the line is not
// (yet) available: either the port denies the fetch (its per-unit
// budget is spent, so the constructor stalls and retries next unit) or
// the prefetch cache is full (which terminates the region).
func (e *Engine) fetchLine(r *region, line uint32) bool {
	if r.lines.has(line) {
		return true
	}
	if r.lines.len() >= e.lineCap {
		e.completeRegion(r, &e.stats.RegionsExhausted)
		return false
	}
	granted, miss := e.port.FetchLine(line)
	if !granted {
		return false
	}
	r.lines.add(line)
	e.stats.LinesFetched++
	if miss {
		e.stats.ICacheMisses++
	}
	return true
}

// deliver disposes of a completed trace: drop if already cached, else
// buffer it. A buffer rejection terminates the region (§3.1). It also
// queues the trace's successor as a new start point (§2.1). tr is
// borrowed from the constructor's builder; the insert path interns it
// before it escapes into the buffers.
func (e *Engine) deliver(r *region, tr *trace.Trace) {
	e.stats.TracesBuilt++
	r.built++
	if e.traceHook != nil {
		e.traceHook(tr, r.start)
	}
	id := tr.ID()
	if e.tc.Contains(id) || e.buf.Contains(id) {
		e.stats.TracesDuplicate++
	} else {
		if !e.buf.Insert(e.store.Intern(tr), r.seq) {
			e.completeRegion(r, &e.stats.RegionsBounded)
			return
		}
	}
	if tr.Succ != 0 && !r.seen.has(tr.Succ) && r.pending() < WorklistCap {
		r.pushWork(tr.Succ)
	}
	if r.built >= MaxTracesPerRegion {
		e.completeRegion(r, nil)
	}
}

// bestWorklist returns the active region with the highest priority
// (most recent seq) that has pending work for an idle constructor.
func (e *Engine) bestWorklist() *region {
	var best *region
	for _, r := range e.regions {
		if r == nil || !r.active {
			continue
		}
		if r.pending() == 0 && r.prewalked {
			continue
		}
		if best == nil || r.seq > best.seq {
			best = r
		}
	}
	return best
}

// Step runs the engine for the given number of idle slow-path work
// units. Each unit lets every idle constructor claim work and every busy
// constructor advance up to StepInstrs instructions; line fetches happen
// on demand through the shared port as constructors encounter them.
func (e *Engine) Step(units int) {
	if e.cfg.MeasureOverhead {
		t0 := time.Now()
		e.step(units)
		e.stats.StepNs += uint64(time.Since(t0))
		return
	}
	e.step(units)
}

func (e *Engine) step(units int) {
	for u := 0; u < units; u++ {
		// With no stacked start points, active regions or busy
		// constructors, the remaining units are no-ops.
		if e.quiet() {
			e.stats.WorkUnits += uint64(units - u)
			return
		}
		e.stats.WorkUnits++
		e.port.BeginUnit()
		e.activateRegions()
		for _, c := range e.ctors {
			if c.reg == nil {
				r := e.bestWorklist()
				if r == nil {
					continue
				}
				if !r.prewalked {
					c.beginPreWalk(r)
				} else {
					c.beginStart(r, r.popWork())
				}
			}
			c.advance(StepInstrs)
		}
		if e.retireCheck {
			e.retireCheck = false
			e.retireQuiescent()
		}
	}
}

// quiet reports whether a work unit would be a no-op. A busy
// constructor always references an active region (completeRegion
// resets its constructors), so two counters decide it.
func (e *Engine) quiet() bool {
	return e.stackLive == 0 && e.activeCount == 0
}

// retireQuiescent completes regions whose work is done: boundary located,
// worklist drained, and no constructor still walking.
func (e *Engine) retireQuiescent() {
	for _, r := range e.regions {
		if r == nil || !r.active || !r.prewalked || r.pending() > 0 || r.walkers > 0 {
			continue
		}
		e.completeRegion(r, nil)
	}
}

// Idle reports whether the engine has no active regions, no stacked
// start points, and no busy constructors (for tests and draining).
func (e *Engine) Idle() bool { return e.quiet() }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }
