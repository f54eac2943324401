package workload

import (
	"fmt"
	"math/rand"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// Register conventions for generated code.
const (
	regScratchLo = 1 // r1..r7 block scratch
	regScratchHi = 7
	regLoopBase  = 8  // r8.. loop counters by nesting depth
	regCond      = 16 // condition / switch computation
	regCondThr   = 17
	regTblAddr   = 18
	regPRNG      = 20 // in-program LCG state
	regLCGMul    = 23 // LCG multiplier constant
	regDataBase  = 24 // base of the data scratch array
	regDriver    = 25 // driver phase counter
)

const (
	codeBase   = 0x00010000
	dataBase   = 0x01000000
	arrayWords = 2048 // scratch array for block loads/stores
	lcgMul     = 1664525
)

// segment is a node in a function's planned body.
type segment interface{ isSegment() }

type blockOp struct {
	op         isa.Op
	rd, ra, rb uint8
	imm        int32
	mem        bool // load/store uses regDataBase+imm addressing
}

type segBlock struct{ ops []blockOp }

type segIf struct {
	thr   int // taken threshold 0..256 (p = thr/256)
	shift int
	inc   int32 // LCG increment for this site
	then  []segment
	els   []segment
}

type segLoop struct {
	trips int
	depth int
	body  []segment
}

type segCall struct{ callee int }

// segCallInd is an indirect call through a function-pointer table: the
// in-program PRNG selects one of the candidate callees at run time.
type segCallInd struct {
	callees []int
	shift   int
	inc     int32
}

type segSwitch struct {
	ways  int
	shift int
	inc   int32
	cases [][]segment
}

func (segBlock) isSegment()   {}
func (segIf) isSegment()      {}
func (segLoop) isSegment()    {}
func (segCall) isSegment()    {}
func (segCallInd) isSegment() {}
func (segSwitch) isSegment()  {}

// plannedFunc is a function's planned body plus bookkeeping for emission.
type plannedFunc struct {
	index    int
	body     []segment
	hasCalls bool
	maxDepth int     // deepest loop nesting used
	expCost  float64 // expected dynamic instructions per invocation
	static   int     // static instructions (body only, before prologue)
}

// planner builds all functions bottom-up so callee costs are known.
type planner struct {
	p      Profile
	rng    *rand.Rand
	funcs  []*plannedFunc
	cost   []float64 // expected dynamic cost per call, indexed by function
	ranges [][2]int  // per-phase function index ranges [lo,hi)
	shared [2]int    // shared function range [lo,hi)
}

// Generate builds the synthetic benchmark program for the profile.
func Generate(p Profile) (*program.Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := &planner{
		p:     p,
		rng:   rand.New(rand.NewSource(p.Seed)),
		funcs: make([]*plannedFunc, p.NumFuncs),
		cost:  make([]float64, p.NumFuncs),
	}
	pl.partition()
	// Plan functions in decreasing index order: callees (higher index)
	// are planned before callers, so call costs are known.
	for i := p.NumFuncs - 1; i >= 0; i-- {
		pl.funcs[i] = pl.planFunc(i)
		pl.cost[i] = pl.funcs[i].expCost
	}
	return pl.emit()
}

// partition splits functions into per-phase ranges plus a shared tail.
func (pl *planner) partition() {
	n := pl.p.NumFuncs
	sharedCount := int(pl.p.SharedFrac * float64(n))
	phaseFuncs := n - sharedCount
	per := phaseFuncs / pl.p.Phases
	if per < 1 {
		per = 1
	}
	pl.ranges = make([][2]int, pl.p.Phases)
	lo := 0
	for r := 0; r < pl.p.Phases; r++ {
		hi := lo + per
		if r == pl.p.Phases-1 || hi > phaseFuncs {
			hi = phaseFuncs
		}
		pl.ranges[r] = [2]int{lo, hi}
		lo = hi
	}
	pl.shared = [2]int{phaseFuncs, n}
}

// entriesOf returns the driver's entry functions for a phase range,
// spread evenly across the range so each driver iteration exercises the
// whole phase working set, not just its head.
func (pl *planner) entriesOf(r [2]int) []int {
	n := r[1] - r[0]
	if n <= 0 {
		return nil
	}
	count := pl.p.CallsPerDriver
	if count > n {
		count = n
	}
	out := make([]int, count)
	for k := 0; k < count; k++ {
		out[k] = r[0] + k*n/count
	}
	return out
}

// calleesOf returns the candidate callees of function i in two groups:
// local candidates (the forward window within i's phase range, plus a
// few far-forward functions that give call chains reach across the
// whole range) and the size of the shared utility pool callable from
// every phase, functions pl.shared[0] onward.
func (pl *planner) calleesOf(i int) (local []int, nShared int) {
	if i >= pl.shared[0] {
		for j := i + 1; j <= i+pl.p.CalleeWindow && j < pl.shared[1]; j++ {
			local = append(local, j)
		}
		return local, 0
	}
	var hi int
	for _, r := range pl.ranges {
		if i >= r[0] && i < r[1] {
			hi = r[1]
			break
		}
	}
	for j := i + 1; j <= i+pl.p.CalleeWindow && j < hi; j++ {
		local = append(local, j)
	}
	// Far-forward candidates: three evenly spaced functions beyond the
	// window, so deep range positions are reachable from every entry.
	far := hi - (i + pl.p.CalleeWindow + 1)
	if far > 0 {
		for k := 1; k <= 3; k++ {
			j := i + pl.p.CalleeWindow + k*far/4
			if j > i+pl.p.CalleeWindow && j < hi {
				local = append(local, j)
			}
		}
	}
	return local, pl.shared[1] - pl.shared[0]
}

// pickCallee chooses a callee, favouring the local range (which drives
// phase working sets) over the shared utility pool.
func (pl *planner) pickCallee(i int) (int, bool) {
	local, nShared := pl.calleesOf(i)
	if len(local) == 0 && nShared == 0 {
		return 0, false
	}
	useShared := len(local) == 0 || (nShared > 0 && pl.rng.Float64() < 0.25)
	if useShared {
		return pl.shared[0] + pl.rng.Intn(nShared), true
	}
	return local[pl.rng.Intn(len(local))], true
}

// planFunc plans one function body.
func (pl *planner) planFunc(i int) *plannedFunc {
	f := &plannedFunc{index: i}
	budget := pl.p.FuncInstrsT/2 + pl.rng.Intn(pl.p.FuncInstrsT)
	body, static, exp := pl.planSegments(f, i, budget, pl.p.MaxExpCost, 0)
	f.body = body
	f.static = static
	// Account for prologue/epilogue and return.
	over := float64(pl.frameInstrs(f)) + 1
	f.expCost = exp + over
	return f
}

// frameInstrs returns the prologue+epilogue instruction count.
func (pl *planner) frameInstrs(f *plannedFunc) int {
	saves := f.maxDepth
	if f.hasCalls {
		saves++
	}
	if saves == 0 {
		return 0
	}
	return 2*saves + 2 // sp adjust, saves, restores, sp restore
}

// planSegments plans a segment list within static and expected-dynamic
// budgets at the given loop depth. It returns the list, its static
// instruction count, and its expected dynamic cost.
func (pl *planner) planSegments(f *plannedFunc, fi, staticBudget int, expBudget float64, depth int) ([]segment, int, float64) {
	var segs []segment
	static := 0
	exp := 0.0
	// Guarantee at least one block so bodies are never empty.
	for static < staticBudget && exp < expBudget {
		s, sn, se := pl.planOne(f, fi, staticBudget-static, expBudget-exp, depth)
		if s == nil {
			break
		}
		segs = append(segs, s)
		static += sn
		exp += se
	}
	if len(segs) == 0 {
		b := pl.planBlock(pl.p.BlockMin)
		segs = append(segs, b)
		static += len(b.ops)
		exp += float64(len(b.ops))
	}
	return segs, static, exp
}

// planOne plans a single segment, or returns nil when budgets are too
// tight for anything but stopping.
func (pl *planner) planOne(f *plannedFunc, fi, staticBudget int, expBudget float64, depth int) (segment, int, float64) {
	if staticBudget < pl.p.BlockMin || expBudget < float64(pl.p.BlockMin) {
		return nil, 0, 0
	}
	w := []float64{pl.p.WBlock, pl.p.WIf, pl.p.WLoop, pl.p.WCall, pl.p.WSwitch, pl.p.WCallInd}
	for tries := 0; tries < 4; tries++ {
		switch pick(pl.rng, w) {
		case 0: // block
			n := pl.p.BlockMin + pl.rng.Intn(pl.p.BlockMax-pl.p.BlockMin+1)
			if n > staticBudget {
				n = staticBudget
			}
			b := pl.planBlock(n)
			return b, len(b.ops), float64(len(b.ops))
		case 1: // if/else
			if staticBudget < 14 || expBudget < 10 {
				continue
			}
			return pl.planIf(f, fi, staticBudget, expBudget, depth)
		case 2: // loop
			if depth >= pl.p.LoopNestMax || staticBudget < 10 {
				continue
			}
			s, sn, se := pl.planLoop(f, fi, staticBudget, expBudget, depth)
			if s == nil {
				continue
			}
			return s, sn, se
		case 3: // call
			s, sn, se := pl.planCall(f, fi, expBudget)
			if s == nil {
				continue
			}
			return s, sn, se
		case 4: // switch
			if staticBudget < 10+3*pl.p.SwitchWays || expBudget < 16 {
				continue
			}
			return pl.planSwitch(f, fi, staticBudget, expBudget, depth)
		case 5: // indirect call
			s, sn, se := pl.planCallInd(f, fi, expBudget)
			if s == nil {
				continue
			}
			return s, sn, se
		}
	}
	// Fall back to a minimal block.
	b := pl.planBlock(pl.p.BlockMin)
	return b, len(b.ops), float64(len(b.ops))
}

// planBlock plans a straight-line block of n instructions mixing ALU and
// memory operations over the scratch registers.
func (pl *planner) planBlock(n int) segBlock {
	if n < 1 {
		n = 1
	}
	ops := make([]blockOp, n)
	for k := range ops {
		r := func() uint8 {
			return uint8(regScratchLo + pl.rng.Intn(regScratchHi-regScratchLo+1))
		}
		off := int32(pl.rng.Intn(arrayWords)) * 4
		switch pl.rng.Intn(8) {
		case 0: // load
			ops[k] = blockOp{op: isa.OpLoad, rd: r(), ra: regDataBase, imm: off, mem: true}
		case 1: // store
			ops[k] = blockOp{op: isa.OpStore, rb: r(), ra: regDataBase, imm: off, mem: true}
		case 2:
			ops[k] = blockOp{op: isa.OpAddI, rd: r(), ra: r(), imm: int32(pl.rng.Intn(255) - 127)}
		case 3:
			ops[k] = blockOp{op: isa.OpShlI, rd: r(), ra: r(), imm: int32(1 + pl.rng.Intn(4))}
		case 4:
			ops[k] = blockOp{op: isa.OpXor, rd: r(), ra: r(), rb: r()}
		case 5:
			ops[k] = blockOp{op: isa.OpAnd, rd: r(), ra: r(), rb: r()}
		case 6:
			ops[k] = blockOp{op: isa.OpSub, rd: r(), ra: r(), rb: r()}
		default:
			ops[k] = blockOp{op: isa.OpAdd, rd: r(), ra: r(), rb: r()}
		}
	}
	return segBlock{ops: ops}
}

// condOverhead is the instruction count of an if/else condition prefix:
// two LCG instructions, extract, mask, threshold load, branch.
const condOverhead = 6

func (pl *planner) planIf(f *plannedFunc, fi, staticBudget int, expBudget float64, depth int) (segment, int, float64) {
	var pTaken float64
	if pl.rng.Float64() < pl.p.StrongBiasFrac {
		if pl.rng.Intn(2) == 0 {
			pTaken = 0.97
		} else {
			pTaken = 0.03
		}
	} else {
		pTaken = pl.p.WeakBiases[pl.rng.Intn(len(pl.p.WeakBiases))]
	}
	thr := int(pTaken * 256)
	armStatic := (staticBudget - condOverhead - 1) / 2
	if armStatic > 28 {
		armStatic = 28
	}
	armExp := expBudget - condOverhead
	then, sThen, eThen := pl.planSegments(f, fi, armStatic, armExp, depth)
	els, sEls, eEls := pl.planSegments(f, fi, armStatic, armExp, depth)
	s := segIf{
		thr:   thr,
		shift: 8 + pl.rng.Intn(16),
		inc:   int32(1 + 2*pl.rng.Intn(16000)),
		then:  then,
		els:   els,
	}
	static := condOverhead + sThen + sEls + 1 // +1 for the else arm's jump
	exp := condOverhead + pTaken*eThen + (1-pTaken)*eEls
	return s, static, exp
}

func (pl *planner) planLoop(f *plannedFunc, fi, staticBudget int, expBudget float64, depth int) (segment, int, float64) {
	trips := pl.p.TripMin + pl.rng.Intn(pl.p.TripMax-pl.p.TripMin+1)
	// Loop overhead: init, decrement, backward branch.
	bodyExp := (expBudget - 3) / float64(trips)
	if bodyExp < float64(pl.p.BlockMin) {
		return nil, 0, 0
	}
	bodyStatic := staticBudget - 3
	if bodyStatic > 40 {
		bodyStatic = 40
	}
	body, sBody, eBody := pl.planSegments(f, fi, bodyStatic, bodyExp, depth+1)
	if depth+1 > f.maxDepth {
		f.maxDepth = depth + 1
	}
	s := segLoop{trips: trips, depth: depth, body: body}
	static := 3 + sBody
	exp := 1 + float64(trips)*(eBody+2)
	return s, static, exp
}

func (pl *planner) planCall(f *plannedFunc, fi int, expBudget float64) (segment, int, float64) {
	j, ok := pl.pickCallee(fi)
	if !ok {
		return nil, 0, 0
	}
	c := pl.cost[j] + 1
	if c > expBudget {
		return nil, 0, 0
	}
	f.hasCalls = true
	return segCall{callee: j}, 1, c
}

// indCallOverhead is the instruction count of an indirect call prefix:
// two LCG steps, extract, mask, scale, two address-materialize, add,
// table load, jalr.
const indCallOverhead = 10

func (pl *planner) planCallInd(f *plannedFunc, fi int, expBudget float64) (segment, int, float64) {
	cands, _ := pl.calleesOf(fi) // local candidates only: tables spread the phase range
	if len(cands) < pl.p.IndCallWays {
		return nil, 0, 0
	}
	// Sample IndCallWays distinct candidates.
	perm := pl.rng.Perm(len(cands))
	callees := make([]int, pl.p.IndCallWays)
	avg := 0.0
	for k := 0; k < pl.p.IndCallWays; k++ {
		callees[k] = cands[perm[k]]
		avg += pl.cost[callees[k]]
	}
	avg /= float64(pl.p.IndCallWays)
	cost := indCallOverhead + avg
	if cost > expBudget {
		return nil, 0, 0
	}
	f.hasCalls = true
	s := segCallInd{
		callees: callees,
		shift:   8 + pl.rng.Intn(16),
		inc:     int32(1 + 2*pl.rng.Intn(16000)),
	}
	return s, indCallOverhead, cost
}

func (pl *planner) planSwitch(f *plannedFunc, fi, staticBudget int, expBudget float64, depth int) (segment, int, float64) {
	ways := pl.p.SwitchWays
	// Prefix: 2 LCG + extract + mask + scale + 2 addr + add + load + jr.
	const prefix = 10
	caseStatic := (staticBudget - prefix) / ways
	if caseStatic > 10 {
		caseStatic = 10
	}
	if caseStatic < pl.p.BlockMin {
		caseStatic = pl.p.BlockMin
	}
	caseExp := expBudget - prefix
	cases := make([][]segment, ways)
	static := prefix
	avg := 0.0
	for w := 0; w < ways; w++ {
		cs, sn, se := pl.planSegments(f, fi, caseStatic, caseExp, depth)
		cases[w] = cs
		static += sn + 1 // +1 for the jump to join
		avg += se + 1
	}
	avg /= float64(ways)
	s := segSwitch{
		ways:  ways,
		shift: 8 + pl.rng.Intn(16),
		inc:   int32(1 + 2*pl.rng.Intn(16000)),
		cases: cases,
	}
	return s, static, prefix + avg
}

// pick chooses an index weighted by w.
func pick(r *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		total += x
	}
	v := r.Float64() * total
	for i, x := range w {
		v -= x
		if v < 0 {
			return i
		}
	}
	return len(w) - 1
}

// ExpectedDriverCost returns the planner's estimate of dynamic
// instructions per driver iteration, for tests and reports.
func ExpectedDriverCost(p Profile) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	pl := &planner{
		p:     p,
		rng:   rand.New(rand.NewSource(p.Seed)),
		funcs: make([]*plannedFunc, p.NumFuncs),
		cost:  make([]float64, p.NumFuncs),
	}
	pl.partition()
	for i := p.NumFuncs - 1; i >= 0; i-- {
		pl.funcs[i] = pl.planFunc(i)
		pl.cost[i] = pl.funcs[i].expCost
	}
	total := 0.0
	for _, r := range pl.ranges {
		for _, fi := range pl.entriesOf(r) {
			total += pl.cost[fi]
		}
	}
	return total / float64(len(pl.ranges)), nil
}

// emit lowers the plan to a program image.
func (pl *planner) emit() (*program.Image, error) {
	b := program.NewBuilder(codeBase)
	b.SetDataBase(dataBase)
	// Scratch array contents: deterministic pseudo-random words.
	seed := uint32(pl.p.Seed)
	for k := 0; k < arrayWords; k++ {
		seed = seed*1664525 + 1013904223
		b.AddDataWord(seed)
	}

	em := &emitter{pl: pl, b: b}
	em.emitMain()
	for i := 0; i < pl.p.NumFuncs; i++ {
		em.emitFunc(pl.funcs[i])
	}
	b.SetEntry("main")
	im, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", pl.p.Name, err)
	}
	return im, nil
}

// emitter tracks label numbering during lowering.
type emitter struct {
	pl     *planner
	b      *program.Builder
	labels int
}

// fresh returns a new block-level label name. Block labels are defined
// with LocalLabel: they resolve branches and jump tables at Build, and
// only function-level labels (main, driver_top, fnN) are exported.
func (em *emitter) fresh(prefix string) string {
	em.labels++
	return fmt.Sprintf("%s_%d", prefix, em.labels)
}

// emitMain emits the driver: constant setup, then an infinite loop over
// the phases, each phase repeating its entry calls PhaseLen times.
func (em *emitter) emitMain() {
	b := em.b
	p := em.pl.p
	b.Label("main")
	b.LoadConst(regLCGMul, lcgMul)
	b.LoadConst(regDataBase, dataBase)
	b.LoadConst(regPRNG, uint32(p.Seed)|1)
	b.Label("driver_top")
	for phase, r := range em.pl.ranges {
		lbl := fmt.Sprintf("phase_%d", phase)
		b.ALUI(isa.OpAddI, regDriver, 0, int32(p.PhaseLen))
		b.LocalLabel(lbl)
		for _, fi := range em.pl.entriesOf(r) {
			b.Call(fnLabel(fi))
		}
		b.ALUI(isa.OpAddI, regDriver, regDriver, -1)
		b.Branch(isa.OpBne, regDriver, 0, lbl)
	}
	b.Jmp("driver_top")
}

func fnLabel(i int) string { return fmt.Sprintf("fn%d", i) }

// emitFunc lowers one planned function: prologue, body, epilogue, return.
func (em *emitter) emitFunc(f *plannedFunc) {
	b := em.b
	b.Label(fnLabel(f.index))
	var saves []uint8
	if f.hasCalls {
		saves = append(saves, isa.RegLink)
	}
	for d := 0; d < f.maxDepth; d++ {
		saves = append(saves, uint8(regLoopBase+d))
	}
	if len(saves) > 0 {
		b.ALUI(isa.OpAddI, isa.RegSP, isa.RegSP, int32(-4*len(saves)))
		for k, r := range saves {
			b.Store(r, isa.RegSP, int32(4*k))
		}
	}
	em.emitSegments(f.body)
	if len(saves) > 0 {
		for k, r := range saves {
			b.Load(r, isa.RegSP, int32(4*k))
		}
		b.ALUI(isa.OpAddI, isa.RegSP, isa.RegSP, int32(4*len(saves)))
	}
	b.Ret()
}

func (em *emitter) emitSegments(segs []segment) {
	for _, s := range segs {
		switch s := s.(type) {
		case segBlock:
			em.emitBlock(s)
		case segIf:
			em.emitIf(s)
		case segLoop:
			em.emitLoop(s)
		case segCall:
			em.b.Call(fnLabel(s.callee))
		case segCallInd:
			em.emitCallInd(s)
		case segSwitch:
			em.emitSwitch(s)
		default:
			panic(fmt.Sprintf("workload: unknown segment %T", s))
		}
	}
}

func (em *emitter) emitBlock(s segBlock) {
	for _, o := range s.ops {
		switch {
		case o.op == isa.OpLoad:
			em.b.Load(o.rd, o.ra, o.imm)
		case o.op == isa.OpStore:
			em.b.Store(o.rb, o.ra, o.imm)
		case o.op == isa.OpAddI || o.op == isa.OpShlI:
			em.b.ALUI(o.op, o.rd, o.ra, o.imm)
		default:
			em.b.ALU(o.op, o.rd, o.ra, o.rb)
		}
	}
}

// emitPRNGStep advances the in-program LCG: r20 = r20*mul + inc.
func (em *emitter) emitPRNGStep(inc int32) {
	em.b.ALU(isa.OpMul, regPRNG, regPRNG, regLCGMul)
	em.b.ALUI(isa.OpAddI, regPRNG, regPRNG, inc)
}

func (em *emitter) emitIf(s segIf) {
	b := em.b
	thenLbl := em.fresh("then")
	joinLbl := em.fresh("join")
	em.emitPRNGStep(s.inc)
	b.ALUI(isa.OpShrI, regCond, regPRNG, int32(s.shift))
	b.ALUI(isa.OpAndI, regCond, regCond, 255)
	b.ALUI(isa.OpAddI, regCondThr, 0, int32(s.thr))
	b.Branch(isa.OpBlt, regCond, regCondThr, thenLbl)
	em.emitSegments(s.els)
	b.Jmp(joinLbl)
	b.LocalLabel(thenLbl)
	em.emitSegments(s.then)
	b.LocalLabel(joinLbl)
}

func (em *emitter) emitLoop(s segLoop) {
	b := em.b
	reg := uint8(regLoopBase + s.depth)
	head := em.fresh("loop")
	b.ALUI(isa.OpAddI, reg, 0, int32(s.trips))
	b.LocalLabel(head)
	em.emitSegments(s.body)
	b.ALUI(isa.OpAddI, reg, reg, -1)
	b.Branch(isa.OpBne, reg, 0, head)
}

// emitCallInd lowers an indirect call: the PRNG indexes a data-section
// table of function addresses and the call goes through jalr.
func (em *emitter) emitCallInd(s segCallInd) {
	b := em.b
	var tbl uint32
	for w, callee := range s.callees {
		a := b.AddDataLabel(fnLabel(callee))
		if w == 0 {
			tbl = a
		}
	}
	em.emitPRNGStep(s.inc)
	b.ALUI(isa.OpShrI, regCond, regPRNG, int32(s.shift))
	b.ALUI(isa.OpAndI, regCond, regCond, int32(len(s.callees)-1))
	b.ALUI(isa.OpShlI, regCond, regCond, 2)
	b.LoadConst(regTblAddr, tbl)
	b.ALU(isa.OpAdd, regCond, regCond, regTblAddr)
	b.Load(regCond, regCond, 0)
	b.CallReg(regCond)
}

func (em *emitter) emitSwitch(s segSwitch) {
	b := em.b
	joinLbl := em.fresh("swjoin")
	caseLbls := make([]string, s.ways)
	for w := range caseLbls {
		caseLbls[w] = em.fresh("case")
	}
	// Build the jump table in the data section now; its address is the
	// address of its first word.
	var tbl uint32
	for w, lbl := range caseLbls {
		a := b.AddDataLabel(lbl)
		if w == 0 {
			tbl = a
		}
	}
	em.emitPRNGStep(s.inc)
	b.ALUI(isa.OpShrI, regCond, regPRNG, int32(s.shift))
	b.ALUI(isa.OpAndI, regCond, regCond, int32(s.ways-1))
	b.ALUI(isa.OpShlI, regCond, regCond, 2)
	b.LoadConst(regTblAddr, tbl)
	b.ALU(isa.OpAdd, regCond, regCond, regTblAddr)
	b.Load(regCond, regCond, 0)
	b.JumpReg(regCond)
	for w, lbl := range caseLbls {
		b.LocalLabel(lbl)
		em.emitSegments(s.cases[w])
		if w != s.ways-1 {
			b.Jmp(joinLbl)
		}
	}
	b.LocalLabel(joinLbl)
}
