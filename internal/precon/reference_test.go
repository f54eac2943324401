package precon

// The reference engine: the preconstruction engine as it stood before
// start points were marked at seal time and walks appended straight-line
// runs in one step, kept verbatim apart from its type names (refEngine,
// refRegion, refConstructor) and constructor (newRefEngine). It shares
// Config, Stats, the start-point and line sets and the slow-path port
// with the package. It observes the dispatch stream one emulator.Dyn at
// a time and walks one instruction at a time, so TestEngineMatchesReference
// and FuzzEngine hold the engine to it event by event.

import (
	"errors"
	"math/bits"
	"time"

	"tracepre/internal/bpred"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
	"tracepre/internal/trace"
)

// Engine is the trace preconstruction unit.
type refEngine struct {
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

	regions     []*refRegion
	activeCount int          // regions with active == true
	freeList    []*refRegion // completed regions awaiting reuse
	ctors       []*refConstructor
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
func (e *refEngine) SetTraceHook(fn func(tr *trace.Trace, sp StartPoint)) {
	e.traceHook = fn
}

// region is one active preconstruction region (one prefetch cache plus
// its worklist). Regions are pooled: completeRegion resets the sets and
// returns the region to the engine's free list, so steady-state
// activation allocates nothing.
type refRegion struct {
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
func (r *refRegion) pending() int { return len(r.worklist) - r.wlHead }

// pushWork queues a trace start point and marks it seen.
func (r *refRegion) pushWork(addr uint32) {
	r.worklist = append(r.worklist, addr)
	r.seen.add(addr)
}

// popWork consumes the oldest queued trace start point.
func (r *refRegion) popWork() uint32 {
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
func newRefEngine(cfg Config, sel trace.SelectConfig, im *program.Image, bim *bpred.Bimodal, itb *bpred.TargetBuffer,
	port *SlowPathPort, tc TraceStore, buf BufferStore, store *trace.Store) (*refEngine, error) {
	if err := errors.Join(cfg.Validate(), sel.Validate()); err != nil {
		return nil, err
	}
	lineCap, err := cfg.PrefetchLines(port.LineBytes())
	if err != nil {
		return nil, err
	}
	e := &refEngine{
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
		regions:  make([]*refRegion, NumRegions),
		ctors:    make([]*refConstructor, cfg.NumConstructors),
	}
	for i := range e.ctors {
		e.ctors[i] = newRefConstructor(e)
	}
	return e, nil
}

// lineAddr aligns pc to the slow-path i-cache's line.
func (e *refEngine) lineAddr(pc uint32) uint32 { return pc &^ e.lineMask }

// Observe monitors one dispatched-and-retiring instruction for region
// start-point events: calls push their return address, taken backward
// branches push their fall-through (the loop exit). Reaching a stacked
// start point removes it.
func (e *refEngine) Observe(d emulator.Dyn) {
	e.observeOne(&d)
}

// ObserveBatch monitors a batch of dispatched-and-retiring
// instructions, equivalent to calling Observe on each in order but
// without the per-instruction call and copy overhead. The slice is the
// natural dispatch unit (one demanded trace).
func (e *refEngine) ObserveBatch(dyns []emulator.Dyn) {
	if e.cfg.MeasureOverhead {
		t0 := time.Now()
		for i := range dyns {
			e.observeOne(&dyns[i])
		}
		e.stats.ObserveNs += uint64(time.Since(t0))
		return
	}
	for i := range dyns {
		e.observeOne(&dyns[i])
	}
}

func (e *refEngine) observeOne(d *emulator.Dyn) {
	// Execution arriving at a stacked start point retires it. The
	// address index rejects the no-match case — almost every
	// instruction — with one probe.
	if e.stackLive != 0 && e.stackIdx.contains(d.PC) {
		e.retireStacked(d.PC)
	}
	e.observeEvents(d, false)
}

// retireStacked tombstones the newest live stack entry at addr.
func (e *refEngine) retireStacked(addr uint32) {
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
func (e *refEngine) compactStack() {
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

// ObserveSpeculative monitors a wrong-path dispatched instruction: its
// start points enter the stack (and may displace older entries) but are
// marked and removed when FlushSpeculation reports the misprediction
// resolved. Wrong-path instructions never retire entries.
func (e *refEngine) ObserveSpeculative(d emulator.Dyn) {
	e.observeEvents(&d, true)
}

// FlushSpeculation removes every speculative entry (mispredict
// recovery).
func (e *refEngine) FlushSpeculation() {
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

func (e *refEngine) observeEvents(d *emulator.Dyn, spec bool) {
	// One opcode switch instead of IsCall + IsBackwardBranch predicate
	// chains: this runs for every dispatched instruction.
	switch d.Inst.Op {
	case isa.OpJal, isa.OpJalr:
		e.push(StartPoint{Addr: d.PC + isa.WordSize, Kind: ReturnPoint}, spec)
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		if d.Taken && d.Inst.Imm < 0 {
			e.push(StartPoint{Addr: d.PC + isa.WordSize, Kind: LoopExit}, spec)
		}
	}
}

// push adds a start point, deduplicating against the top of the stack
// and discarding the oldest entry on overflow.
func (e *refEngine) push(sp StartPoint, spec bool) {
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
func (e *refEngine) popStack() (StartPoint, bool) {
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
func (e *refEngine) StackDepth() int { return e.stackLive }

// OnDemandFetch notifies the engine that the processor is fetching a
// trace starting at pc. If pc is one of a region's trace start points,
// the processor has caught up with that region — the fill unit is now
// building its traces directly — and its preconstruction terminates.
func (e *refEngine) OnDemandFetch(pc uint32) {
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
func (e *refEngine) completeRegion(r *refRegion, reason *uint64) {
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

func (e *refEngine) recentlyCompleted(addr uint32) bool {
	for _, a := range &e.completed {
		if a != 0 && a == addr {
			return true
		}
	}
	return false
}

// newRegion takes a pooled region or allocates one with its sets sized
// for this engine's image and line size.
func (e *refEngine) newRegion() *refRegion {
	if n := len(e.freeList); n > 0 {
		r := e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
		return r
	}
	r := &refRegion{worklist: make([]uint32, 0, WorklistCap)}
	r.seen.init(WorklistCap * 2)
	r.lines.initLines(e.lineAddr(e.im.Base), e.im.End(), uint(bits.OnesCount32(e.lineMask)))
	return r
}

// activateRegions pops start points into free region slots.
func (e *refEngine) activateRegions() {
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

func (e *refEngine) alreadyActive(addr uint32) bool {
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
func (e *refEngine) fetchLine(r *refRegion, line uint32) bool {
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
func (e *refEngine) deliver(r *refRegion, tr *trace.Trace) {
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
func (e *refEngine) bestWorklist() *refRegion {
	var best *refRegion
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
func (e *refEngine) Step(units int) {
	if e.cfg.MeasureOverhead {
		t0 := time.Now()
		e.step(units)
		e.stats.StepNs += uint64(time.Since(t0))
		return
	}
	e.step(units)
}

func (e *refEngine) step(units int) {
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
func (e *refEngine) quiet() bool {
	return e.stackLive == 0 && e.activeCount == 0
}

// retireQuiescent completes regions whose work is done: boundary located,
// worklist drained, and no constructor still walking.
func (e *refEngine) retireQuiescent() {
	for _, r := range e.regions {
		if r == nil || !r.active || !r.prewalked || r.pending() > 0 || r.walkers > 0 {
			continue
		}
		e.completeRegion(r, nil)
	}
}

// Idle reports whether the engine has no active regions, no stacked
// start points, and no busy constructors (for tests and draining).
func (e *refEngine) Idle() bool { return e.quiet() }

// Stats returns a copy of the engine counters.
func (e *refEngine) Stats() Stats { return e.stats }

// constructor walks static code from a trace start point and builds the
// traces reachable from it. Strongly-biased branches are followed one
// way only; weakly-biased branches fork: the not-taken path is walked
// first and the decision pushed on an internal stack, then after each
// completed trace the constructor backtracks and walks the alternative
// (§3.4).
type refConstructor struct {
	e   *refEngine
	reg *refRegion

	prewalk bool
	start   uint32

	// Walk state.
	pc        uint32
	b         *trace.Builder
	decisions []decision
	brIdx     int
	built     int
	callStack []uint32

	// Last line confirmed fetched for the current region. A region's
	// fetched-line set only grows while the region is active, so a
	// straight-line run of instructions needs one fetchLine check per
	// line, not per instruction.
	lastLine uint32
	lineOK   bool

	// Pre-walk state (loop-exit boundary search).
	pwSince int
	pwCount int
}

func newRefConstructor(e *refEngine) *refConstructor {
	return &refConstructor{e: e, b: trace.NewBuilder(e.sel)}
}

// reset returns the constructor to idle.
func (c *refConstructor) reset() {
	if c.reg != nil {
		c.reg.walkers--
		if c.reg.walkers == 0 {
			c.e.retireCheck = true
		}
	}
	c.reg = nil
	c.prewalk = false
	c.decisions = c.decisions[:0]
	c.callStack = c.callStack[:0]
	c.brIdx = 0
	c.built = 0
	c.lineOK = false
	c.b.Reset()
}

// beginStart points the constructor at a trace start point.
func (c *refConstructor) beginStart(r *refRegion, start uint32) {
	c.reset()
	c.reg = r
	r.walkers++
	c.start = start
	c.pc = start
}

// beginPreWalk points the constructor at a loop-exit region whose first
// trace boundary has not been located yet.
func (c *refConstructor) beginPreWalk(r *refRegion) {
	c.reset()
	c.reg = r
	r.walkers++
	c.prewalk = true
	c.pc = r.start.Addr
	c.pwSince = 0
	c.pwCount = 0
	r.prewalked = true // claimed; another constructor must not also walk it
}

// advance runs the constructor for up to n instructions.
func (c *refConstructor) advance(n int) {
	if c.reg == nil {
		return
	}
	if c.prewalk {
		for i := 0; i < n && c.reg != nil; i++ {
			c.preWalkStep()
		}
		return
	}
	c.walk(n)
}

// abandonStart drops the current partial walk and frees the constructor
// for the next start point.
func (c *refConstructor) abandonStart() {
	c.reset()
}

// direction resolves a conditional branch during construction: strongly
// biased branches follow their bias; weak branches consult (or extend)
// the decision stack.
func (c *refConstructor) direction(pc uint32) bool {
	taken, strong := c.e.bim.Bias(pc)
	if strong {
		return taken
	}
	if c.brIdx < len(c.decisions) {
		d := c.decisions[c.brIdx].dir
		c.brIdx++
		return d
	}
	if len(c.decisions) < c.e.cfg.DecisionDepth {
		c.decisions = append(c.decisions, decision{dir: false})
		c.brIdx++
		return false
	}
	// Decision stack exhausted: follow the (weak) prediction.
	c.brIdx++
	return taken
}

// walk executes up to n instructions of a construction walk. The loop
// lives here rather than in advance so the program counter stays in a
// register across instructions; a work unit's whole instruction budget
// runs in one call.
func (c *refConstructor) walk(n int) {
	e := c.e
	b := c.b
	insts, base := e.im.Insts(), e.im.Base
	pc := c.pc
	for i := 0; i < n; i++ {
		if line := e.lineAddr(pc); !c.lineOK || line != c.lastLine {
			if !e.fetchLine(c.reg, line) {
				// Region completed (prefetch cache full; reset by
				// engine), or this unit's fetch budget is spent — either
				// way no further instruction can issue this unit.
				if c.reg != nil {
					c.pc = pc
				}
				return
			}
			c.lastLine, c.lineOK = line, true
		}
		// Image.Contains' rule, on the image's slice in place: a pc
		// below base wraps to an offset past the end.
		off := pc - base
		if off%isa.WordSize != 0 || off/isa.WordSize >= uint32(len(insts)) {
			c.abandonStart()
			return
		}
		in := &insts[off/isa.WordSize]

		taken := false
		next := pc + isa.WordSize
		class := in.Classify()
		switch class {
		case isa.ClassBranch:
			taken = c.direction(pc)
			if taken {
				next = in.BranchTarget(pc)
			}
		case isa.ClassJump:
			next = in.Target
		case isa.ClassCall:
			if len(c.callStack) < CallStackDepth {
				c.callStack = append(c.callStack, pc+isa.WordSize)
			}
			next = in.Target
		case isa.ClassReturn:
			if len(c.callStack) > 0 {
				next = c.callStack[len(c.callStack)-1]
				c.callStack = c.callStack[:len(c.callStack)-1]
			} else {
				next = 0 // successor unknown beyond this trace
			}
		case isa.ClassJumpInd:
			next = 0
			if e.cfg.ResolveIndirects {
				if target, ok := e.itb.Predict(pc); ok {
					next = target
				}
			}
		case isa.ClassHalt:
			next = 0
		}

		done := b.AppendClassified(pc, in, class, taken)
		pc = next
		if !done {
			continue
		}
		// Seal, not Finish: the builder's trace is delivered borrowed,
		// and deliver interns it only if it actually enters the buffers
		// — most constructed traces are duplicates and never escape.
		tr := b.Seal(next)
		e.deliver(c.reg, tr)
		if c.reg == nil {
			return // deliver terminated the region
		}
		c.nextTraceFromStart()
		if c.reg == nil {
			return // start-point tree exhausted
		}
		pc = c.pc // nextTraceFromStart rewound to the start point
	}
	c.pc = pc
}

// nextTraceFromStart backtracks the decision stack to enumerate the next
// alternative trace from the same start point, or finishes the start
// point when the tree is exhausted.
func (c *refConstructor) nextTraceFromStart() {
	c.built++
	if c.built >= MaxTracesPerStart {
		c.reset()
		return
	}
	for len(c.decisions) > 0 && c.decisions[len(c.decisions)-1].flipped {
		c.decisions = c.decisions[:len(c.decisions)-1]
	}
	if len(c.decisions) == 0 {
		c.reset()
		return
	}
	c.decisions[len(c.decisions)-1] = decision{dir: true, flipped: true}
	// Replay from the start with the flipped decision prefix.
	c.b.Reset()
	c.brIdx = 0
	c.callStack = c.callStack[:0]
	c.pc = c.start
}

// preWalkStep advances the loop-exit boundary search: it reproduces the
// tail of the processor's trace that contains the final backward branch,
// counting instructions past the branch until the multiple-of-AlignMod
// termination rule fires. The instruction after that point is where the
// processor's next demanded trace will start, so it becomes the region's
// first trace start point.
func (c *refConstructor) preWalkStep() {
	r := c.reg
	if line := c.e.lineAddr(c.pc); !c.lineOK || line != c.lastLine {
		if !c.e.fetchLine(r, line) {
			return
		}
		c.lastLine, c.lineOK = line, true
	}
	in, ok := c.e.im.At(c.pc)
	if !ok {
		c.abortPreWalk()
		return
	}
	next := c.pc + isa.WordSize
	boundary := false
	switch in.Classify() {
	case isa.ClassBranch:
		taken, strong := c.e.bim.Bias(c.pc)
		if !strong {
			taken = c.e.bim.Peek(c.pc)
		}
		if taken {
			next = in.BranchTarget(c.pc)
		}
		if in.IsBackwardBranch() {
			c.pwSince = -1 // reset below after the increment
		}
	case isa.ClassJump:
		next = in.Target
	case isa.ClassCall:
		if len(c.callStack) < CallStackDepth {
			c.callStack = append(c.callStack, c.pc+isa.WordSize)
		}
		next = in.Target
	case isa.ClassReturn:
		if len(c.callStack) > 0 {
			next = c.callStack[len(c.callStack)-1]
			c.callStack = c.callStack[:len(c.callStack)-1]
			boundary = true // traces end at returns
		} else {
			c.abortPreWalk()
			return
		}
	case isa.ClassJumpInd, isa.ClassHalt:
		c.abortPreWalk()
		return
	}
	c.pwSince++
	c.pwCount++
	if c.pwSince < 0 {
		c.pwSince = 0
	}
	if c.pwSince > 0 && c.pwSince%c.e.sel.AlignMod == 0 {
		boundary = true
	}
	if boundary {
		r.pushWork(next)
		c.reset()
		return
	}
	if c.pwCount >= PreWalkCap {
		c.abortPreWalk()
		return
	}
	c.pc = next
}

// abortPreWalk gives up locating the loop-exit boundary and retires the
// region.
func (c *refConstructor) abortPreWalk() {
	c.e.stats.PreWalkAborts++
	r := c.reg
	c.reset()
	c.e.completeRegion(r, nil)
}
