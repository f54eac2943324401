package precon

import (
	"tracepre/internal/isa"
	"tracepre/internal/trace"
)

// decision is one weakly-biased branch on the constructor's internal
// stack: the direction used on the current walk, and whether the
// alternative has already been explored.
type decision struct {
	dir     bool
	flipped bool
}

// constructor walks static code from a trace start point and builds the
// traces reachable from it. Strongly-biased branches are followed one
// way only; weakly-biased branches fork: the not-taken path is walked
// first and the decision pushed on an internal stack, then after each
// completed trace the constructor backtracks and walks the alternative
// (§3.4).
type constructor struct {
	e   *Engine
	reg *region

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

func newConstructor(e *Engine) *constructor {
	return &constructor{e: e, b: trace.NewBuilder(e.sel)}
}

// reset returns the constructor to idle.
func (c *constructor) reset() {
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
func (c *constructor) beginStart(r *region, start uint32) {
	c.reset()
	c.reg = r
	r.walkers++
	c.start = start
	c.pc = start
}

// beginPreWalk points the constructor at a loop-exit region whose first
// trace boundary has not been located yet.
func (c *constructor) beginPreWalk(r *region) {
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
func (c *constructor) advance(n int) {
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
func (c *constructor) abandonStart() {
	c.reset()
}

// direction resolves a conditional branch during construction: strongly
// biased branches follow their bias; weak branches consult (or extend)
// the decision stack.
func (c *constructor) direction(pc uint32) bool {
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
func (c *constructor) walk(n int) {
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
func (c *constructor) nextTraceFromStart() {
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
func (c *constructor) preWalkStep() {
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
func (c *constructor) abortPreWalk() {
	c.e.stats.PreWalkAborts++
	r := c.reg
	c.reset()
	c.e.completeRegion(r, nil)
}
