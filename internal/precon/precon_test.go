package precon

import (
	"errors"
	"testing"

	"tracepre/internal/bpred"
	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/program"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
)

// rig bundles the shared structures an engine needs.
type rig struct {
	im    *program.Image
	bim   *bpred.Bimodal
	itb   *bpred.TargetBuffer
	ic    *cache.Cache
	store *trace.Store
	tc    *tracecache.TraceCache
	buf   *tracecache.Buffers
	eng   *Engine
}

// buildRig wires an engine the way the frontend does, through the real
// constructors: a 64 KiB i-cache of icLine-byte lines behind a
// fixed-latency L2, and a trace cache and buffers of entries traces
// each, interning into one trace table. It returns New's error.
func buildRig(tb testing.TB, im *program.Image, cfg Config, icLine, entries int) (*rig, error) {
	tb.Helper()
	r := &rig{im: im, store: trace.NewStore()}
	var h *mem.Hierarchy
	var errs [6]error
	r.bim, errs[0] = bpred.NewBimodal(4096)
	r.itb, errs[1] = bpred.NewTargetBuffer(64)
	r.ic, errs[2] = cache.New(cache.Config{SizeBytes: 64 * 1024, LineBytes: icLine, Assoc: 4})
	h, errs[3] = mem.New(mem.Config{}, 10)
	r.tc, errs[4] = tracecache.New(tracecache.Config{Entries: entries, Assoc: 2})
	r.buf, errs[5] = tracecache.NewBuffers(tracecache.BufferConfig{Entries: entries, Assoc: 2})
	if err := errors.Join(errs[:]...); err != nil {
		tb.Fatal(err)
	}
	var err error
	r.eng, err = New(cfg, trace.DefaultSelectConfig(), im, r.bim, r.itb, NewSlowPathPort(r.ic, h), r.tc, r.buf, r.store.NewHandle())
	return r, err
}

func newRig(t *testing.T, im *program.Image, cfg Config) *rig {
	t.Helper()
	return newRigLines(t, im, cfg, 64)
}

// observe hands dyns to the engine's Observe as the traces a
// trace.Builder cuts them into, the unfinished rest included; the
// engine sees the same instructions, in order, with the start points
// the builder marked.
func observe(e *Engine, dyns ...emulator.Dyn) { sealEach(dyns, e.Observe) }

// observeSpec is observe for wrong-path dispatch (ObserveSpeculative).
func observeSpec(e *Engine, dyns ...emulator.Dyn) { sealEach(dyns, e.ObserveSpeculative) }

// sealEach appends dyns to a trace.Builder in order and passes each
// trace it seals, the unfinished rest last, to fn.
func sealEach(dyns []emulator.Dyn, fn func(*trace.Trace)) {
	b := trace.NewBuilder(trace.DefaultSelectConfig())
	for i := range dyns {
		d := &dyns[i]
		if b.AppendClassified(d.PC, &d.Inst, d.Inst.Classify(), d.Taken) {
			fn(b.Seal(d.NextPC))
			b.Reset()
		}
	}
	if tr := b.Seal(0); tr != nil {
		fn(tr)
	}
}

// driveResult summarizes a run of the mini-frontend in drive.
type driveResult struct {
	demanded   []*trace.Trace
	preconHits int
	hitAt      map[int]bool // demanded index supplied by a buffer
}

// drive runs a miniature frontend over the committed stream: it segments
// the stream into demanded traces, probes the trace cache then the
// preconstruction buffers for each, fills the trace cache on misses,
// feeds the dispatch stream to the engine, and grants the engine idle
// work units after every trace.
func drive(t *testing.T, r *rig, budget uint64, unitsPerTrace int) driveResult {
	t.Helper()
	e := emulator.New(r.im)
	b := trace.NewBuilder(trace.DefaultSelectConfig())
	res := driveResult{hitAt: make(map[int]bool)}
	handle := func(tr *trace.Trace) {
		id := tr.ID()
		r.eng.OnDemandFetch(id.Start)
		if _, hit := r.tc.Lookup(id); !hit {
			if got, hit := r.buf.Take(id); hit {
				res.preconHits++
				res.hitAt[len(res.demanded)] = true
				// Verify the preconstructed trace is the machine trace.
				if got.Len() != tr.Len() {
					t.Fatalf("precon trace length %d, machine %d (%v)", got.Len(), tr.Len(), id)
				}
				for k := range got.PCs {
					if got.PCs[k] != tr.PCs[k] || got.Insts[k] != tr.Insts[k] {
						t.Fatalf("precon trace diverges at %d: 0x%x vs 0x%x", k, got.PCs[k], tr.PCs[k])
					}
				}
				r.tc.Insert(got)
			} else {
				r.tc.Insert(r.store.Intern(tr))
			}
		}
		res.demanded = append(res.demanded, tr)
		r.eng.Step(unitsPerTrace)
	}
	_, err := e.Run(budget, func(d emulator.Dyn) {
		// Train the shared bimodal as the slow path would.
		if d.Inst.IsBranch() {
			r.bim.Update(d.PC, d.Taken)
		}
		if b.AppendClassified(d.PC, &d.Inst, d.Inst.Classify(), d.Taken) {
			tr := b.Seal(d.NextPC)
			r.eng.Observe(tr)
			handle(tr.Clone())
			b.Reset()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.StackDepth = 0 },
		func(c *Config) { c.NumConstructors = 0 },
		func(c *Config) { c.PrefetchInstrs = 0 },
		func(c *Config) { c.DecisionDepth = -1 },
	}
	for i, m := range mutate {
		c := DefaultConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: Validate = nil", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if ReturnPoint.String() != "return-point" || LoopExit.String() != "loop-exit" {
		t.Error("Kind strings wrong")
	}
}

func TestStackPushRules(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Halt()
	im, _ := b.Build()
	r := newRig(t, im, DefaultConfig())

	call := emulator.Dyn{PC: 0x1000, Inst: isa.Inst{Op: isa.OpJal, Target: 0x2000}}
	observe(r.eng, call)
	if r.eng.StackDepth() != 1 {
		t.Fatalf("depth = %d after call", r.eng.StackDepth())
	}
	// Duplicate top suppressed.
	observe(r.eng, call)
	if r.eng.StackDepth() != 1 {
		t.Errorf("duplicate push not suppressed")
	}
	if r.eng.Stats().StackDedups != 1 {
		t.Errorf("dedups = %d", r.eng.Stats().StackDedups)
	}
	// Taken backward branch pushes its fall-through.
	back := emulator.Dyn{PC: 0x1100, Taken: true,
		Inst: isa.Inst{Op: isa.OpBne, Ra: 1, Imm: -32}}
	observe(r.eng, back)
	if r.eng.StackDepth() != 2 {
		t.Errorf("depth = %d after backward branch", r.eng.StackDepth())
	}
	// Not-taken backward branch does not push.
	back.Taken = false
	back.PC = 0x1200
	observe(r.eng, back)
	if r.eng.StackDepth() != 2 {
		t.Errorf("not-taken backward branch pushed")
	}
	// Forward branch does not push.
	fwd := emulator.Dyn{PC: 0x1300, Taken: true,
		Inst: isa.Inst{Op: isa.OpBeq, Imm: 64}}
	observe(r.eng, fwd)
	if r.eng.StackDepth() != 2 {
		t.Errorf("forward branch pushed")
	}
	// Execution reaching a stacked point removes it.
	observe(r.eng, emulator.Dyn{PC: 0x1104, Inst: isa.Inst{Op: isa.OpAdd}})
	if r.eng.StackDepth() != 1 {
		t.Errorf("caught-up entry not removed: depth %d", r.eng.StackDepth())
	}
	if r.eng.Stats().StackCaughtUp != 1 {
		t.Errorf("caught-up stat = %d", r.eng.Stats().StackCaughtUp)
	}
}

// TestSpeculativeObservation: wrong-path events enter the stack and
// are removed wholesale at mispredict recovery, leaving committed
// entries intact.
func TestSpeculativeObservation(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Halt()
	im, _ := b.Build()
	r := newRig(t, im, DefaultConfig())

	committed := emulator.Dyn{PC: 0x1000, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}}
	observe(r.eng, committed)
	for i := 0; i < 3; i++ {
		observeSpec(r.eng, emulator.Dyn{
			PC:   uint32(0x2000 + i*0x100),
			Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000},
		})
	}
	if r.eng.StackDepth() != 4 {
		t.Fatalf("depth = %d, want 4", r.eng.StackDepth())
	}
	r.eng.FlushSpeculation()
	if r.eng.StackDepth() != 1 {
		t.Errorf("depth after flush = %d, want 1 (committed entry survives)", r.eng.StackDepth())
	}
	st := r.eng.Stats()
	if st.SpecPushes != 3 || st.SpecFlushed != 3 {
		t.Errorf("spec stats = %d/%d", st.SpecPushes, st.SpecFlushed)
	}
	// Flushing with nothing speculative is a no-op.
	r.eng.FlushSpeculation()
	if r.eng.StackDepth() != 1 {
		t.Error("second flush removed committed entries")
	}
}

// TestSpeculativeOverflowDisplacesCommitted: wrong-path pushes compete
// for stack capacity — the cost the mechanism pays for watching the
// dispatch stream rather than the retirement stream.
func TestSpeculativeOverflowDisplacesCommitted(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Halt()
	im, _ := b.Build()
	cfg := DefaultConfig()
	cfg.StackDepth = 2
	r := newRig(t, im, cfg)
	observe(r.eng, emulator.Dyn{PC: 0x1000, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	observeSpec(r.eng, emulator.Dyn{PC: 0x2000, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	observeSpec(r.eng, emulator.Dyn{PC: 0x3000, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	// The committed entry was displaced by overflow; the flush leaves
	// an empty stack.
	r.eng.FlushSpeculation()
	if r.eng.StackDepth() != 0 {
		t.Errorf("depth = %d, want 0 (committed entry was displaced)", r.eng.StackDepth())
	}
}

func TestStackOverflowDiscardsOldest(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Halt()
	im, _ := b.Build()
	cfg := DefaultConfig()
	cfg.StackDepth = 3
	r := newRig(t, im, cfg)
	for i := 0; i < 5; i++ {
		observe(r.eng, emulator.Dyn{PC: uint32(0x1000 + i*0x100),
			Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	}
	if r.eng.StackDepth() != 3 {
		t.Fatalf("depth = %d", r.eng.StackDepth())
	}
	if r.eng.Stats().StackOverflows != 2 {
		t.Errorf("overflows = %d", r.eng.Stats().StackOverflows)
	}
}

// buildCallProgram: main calls a 40-instruction callee, then executes 24
// straight-line instructions. The callee runs long enough for the engine
// to preconstruct the post-return region.
func buildCallProgram(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	b.Label("main")
	b.Call("fn")
	b.Label("after")
	for i := 0; i < 24; i++ {
		b.ALUI(isa.OpAddI, 1, 1, 1)
	}
	b.Halt()
	b.Label("fn")
	// A counted loop inside the callee to burn time: 8 iterations x 3.
	b.ALUI(isa.OpAddI, 2, 0, 8)
	b.Label("floop")
	b.ALUI(isa.OpAddI, 3, 3, 1)
	b.ALUI(isa.OpAddI, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "floop")
	b.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestReturnRegionAlignment: the region after a call must be
// preconstructed and supply the exact traces demanded after the return.
func TestReturnRegionAlignment(t *testing.T) {
	im := buildCallProgram(t)
	r := newRig(t, im, DefaultConfig())
	res := drive(t, r, 200, 4)
	if res.preconHits == 0 {
		t.Fatalf("no preconstruction hits; stats = %+v", r.eng.Stats())
	}
	// The hit must be on a trace starting at the "after" label.
	after, _ := im.Lookup("after")
	found := false
	for idx := range res.hitAt {
		if res.demanded[idx].PCs[0] == after {
			found = true
		}
	}
	if !found {
		t.Errorf("no precon hit at the return point 0x%x", after)
	}
}

// buildLoopProgram: a 20-iteration loop followed by straight-line code.
func buildLoopProgram(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, 20)
	b.Label("loop")
	b.ALUI(isa.OpAddI, 2, 2, 1)
	b.ALUI(isa.OpAddI, 3, 3, 1)
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Label("after")
	for i := 0; i < 32; i++ {
		b.ALUI(isa.OpAddI, 4, 4, 1)
	}
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestLoopExitRegionAlignment: the loop-exit region's pre-walk must find
// the machine's post-exit trace boundary, and a demanded post-exit trace
// must be supplied from the buffers.
func TestLoopExitRegionAlignment(t *testing.T) {
	im := buildLoopProgram(t)
	r := newRig(t, im, DefaultConfig())
	res := drive(t, r, 300, 4)
	if res.preconHits == 0 {
		t.Fatalf("no preconstruction hits; stats = %+v", r.eng.Stats())
	}
	// At least one hit must be beyond the loop exit.
	after, _ := im.Lookup("after")
	found := false
	for idx := range res.hitAt {
		if res.demanded[idx].PCs[0] >= after {
			found = true
		}
	}
	if !found {
		t.Errorf("no precon hit beyond the loop exit")
	}
}

// TestCatchUpTerminatesRegion: demanding a trace inside a region's
// prefetched code terminates that region.
func TestCatchUpTerminatesRegion(t *testing.T) {
	im := buildCallProgram(t)
	r := newRig(t, im, DefaultConfig())
	after, _ := im.Lookup("after")
	// Push the region start and let the engine work a little.
	observe(r.eng, emulator.Dyn{PC: after - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	r.eng.Step(4)
	if st := r.eng.Stats(); st.RegionsActivated != 1 || st.RegionsCompleted != 0 {
		t.Fatalf("want one active region; stats = %+v", st)
	}
	r.eng.OnDemandFetch(after)
	st := r.eng.Stats()
	if st.RegionsCaughtUp != 1 {
		t.Errorf("caught-up regions = %d", st.RegionsCaughtUp)
	}
	if st.RegionsCompleted != st.RegionsActivated {
		t.Errorf("region still active after catch-up; stats = %+v", st)
	}
}

// TestCompletedRegionNotRestarted: a start point matching a recently
// completed region is skipped.
func TestCompletedRegionNotRestarted(t *testing.T) {
	im := buildCallProgram(t)
	r := newRig(t, im, DefaultConfig())
	after, _ := im.Lookup("after")
	call := emulator.Dyn{PC: after - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}}
	observe(r.eng, call)
	r.eng.Step(200) // run to completion
	if !r.eng.Idle() {
		t.Fatalf("engine not idle; stats=%+v", r.eng.Stats())
	}
	activated := r.eng.Stats().RegionsActivated
	observe(r.eng, call)
	r.eng.Step(10)
	if r.eng.Stats().RegionsActivated != activated {
		t.Errorf("completed region was restarted")
	}
	if r.eng.Stats().CompletedSkips == 0 {
		t.Errorf("no completed-skip recorded")
	}
}

// TestPreWalkAborts: loop-exit pre-walks give up on indirect jumps,
// returns with no known caller, and walks leaving the image.
func TestPreWalkAborts(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *program.Builder)
	}{
		{"indirect", func(b *program.Builder) {
			b.Label("exit")
			b.JumpReg(5)
		}},
		{"bare return", func(b *program.Builder) {
			b.Label("exit")
			b.Ret()
		}},
		{"leaves image", func(b *program.Builder) {
			b.Label("exit")
			b.ALUI(isa.OpAddI, 1, 1, 1)
			// Fall through past the end of the image.
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := program.NewBuilder(0x1000)
			b.Nop()
			c.build(b)
			im, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			r := newRig(t, im, DefaultConfig())
			exit, _ := im.Lookup("exit")
			// A taken backward branch whose fall-through is "exit".
			observe(r.eng, emulator.Dyn{PC: exit - 4, Taken: true,
				Inst: isa.Inst{Op: isa.OpBne, Ra: 1, Imm: -16}})
			r.eng.Step(30)
			if r.eng.Stats().PreWalkAborts == 0 {
				t.Errorf("no pre-walk abort recorded; stats=%+v", r.eng.Stats())
			}
			if !r.eng.Idle() {
				t.Error("engine not idle after abort")
			}
		})
	}
}

// TestPreWalkCapAborts: a pre-walk that never finds a boundary within
// PreWalkCap instructions abandons the region.
func TestPreWalkCapAborts(t *testing.T) {
	// A chain of backward branches keeps resetting the counter:
	// each "bne r0, r1, -N" is not taken (r0==r1==0 means beq... use
	// registers that differ so bne is taken=false statically; the
	// pre-walk follows the *predicted* direction, which starts weakly
	// taken, so use forward layout carefully). Simpler: a long run of
	// instructions where every 3rd is a backward branch predicted
	// not-taken after training.
	b := program.NewBuilder(0x1000)
	b.Nop()
	b.Label("exit")
	for i := 0; i < 40; i++ {
		b.ALUI(isa.OpAddI, 1, 1, 1)
		b.ALUI(isa.OpAddI, 2, 2, 1)
		b.Branch(isa.OpBne, 3, 3, "exit") // never taken (r3==r3)
	}
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, im, DefaultConfig())
	// Train the branches not-taken AND backward so they reset the
	// counter: they are backward (target exit is above). Train each
	// site strongly not-taken so the pre-walk follows fall-through.
	for pc := im.Base; pc < im.End(); pc += 4 {
		if in, _ := im.At(pc); in.IsBranch() {
			r.bim.Update(pc, false)
			r.bim.Update(pc, false)
		}
	}
	exit, _ := im.Lookup("exit")
	observe(r.eng, emulator.Dyn{PC: exit - 4, Taken: true,
		Inst: isa.Inst{Op: isa.OpBne, Ra: 1, Imm: -16}})
	r.eng.Step(30)
	if r.eng.Stats().PreWalkAborts == 0 {
		t.Errorf("cap did not abort the pre-walk; stats=%+v", r.eng.Stats())
	}
}

// TestWalkAbandonsOnBadPC: a construction walk that reaches a pc
// outside the image — past its end, below its base, or between two
// instructions — drops its partial trace and frees the constructor.
func TestWalkAbandonsOnBadPC(t *testing.T) {
	// The image ends after two instructions: a walk falls off the end
	// mid-trace.
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.ALUI(isa.OpAddI, 1, 1, 1)
	open, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Two instructions and a return: a walk from its first instruction
	// builds one trace.
	b = program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.Ret()
	closed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		im     *program.Image
		start  uint32
		traces uint64
	}{
		{"in image", closed, 0x1000, 1},
		{"past end", open, 0x1000, 0},
		{"below base", closed, 0x0ffc, 0},
		{"misaligned", closed, 0x1002, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.im, DefaultConfig())
			// A call just before start pushes start as a region start.
			observe(r.eng, emulator.Dyn{PC: tc.start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
			r.eng.Step(30)
			if got := r.eng.Stats().TracesBuilt; got != tc.traces {
				t.Errorf("built %d traces from a walk starting at 0x%x, want %d", got, tc.start, tc.traces)
			}
			if !r.eng.Idle() {
				t.Error("engine stuck after the walk")
			}
		})
	}
}

// TestBiasedBranchFollowedOneWay: with a strongly-biased branch, the
// constructor must not fork; with a weak one it must build both paths.
func TestBiasedBranchFollowedOneWay(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Label("start")
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.Branch(isa.OpBeq, 2, 3, "other") // the interesting branch
	b.ALUI(isa.OpAddI, 4, 4, 1)
	b.Halt()
	b.Label("other")
	b.ALUI(isa.OpAddI, 5, 5, 1)
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	build := func(train int, dir bool) uint64 {
		r := newRig(t, im, DefaultConfig())
		brPC, _ := im.Lookup("start")
		brPC += 4
		for i := 0; i < train; i++ {
			r.bim.Update(brPC, dir)
		}
		start, _ := im.Lookup("start")
		observe(r.eng, emulator.Dyn{PC: start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
		// The push used start-4+4 = start as the return point.
		r.eng.Step(100)
		return r.eng.Stats().TracesBuilt
	}
	// Strongly biased: one path only -> 1 trace from the start point.
	strong := build(4, false)
	// Weak (reset state is weakly taken): forks -> at least 2 traces.
	weak := build(0, false)
	if strong >= weak {
		t.Errorf("strong bias built %d traces, weak built %d; expected fewer under strong bias", strong, weak)
	}
	if strong != 1 {
		t.Errorf("strongly biased start built %d traces, want 1", strong)
	}
}

// TestConstructorStopsAtIndirect: construction must terminate at an
// indirect jump whose target it cannot resolve.
func TestConstructorStopsAtIndirect(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Label("start")
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.JumpReg(5)
	b.ALUI(isa.OpAddI, 2, 2, 1) // unreachable statically
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, im, DefaultConfig())
	start, _ := im.Lookup("start")
	observe(r.eng, emulator.Dyn{PC: start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	r.eng.Step(50)
	if got := r.eng.Stats().TracesBuilt; got != 1 {
		t.Fatalf("built %d traces, want exactly 1 (ends at indirect)", got)
	}
	// The buffered trace must end at the jr.
	tr, hit := r.buf.Take(trace.ID{Start: start, NumBr: 0, Mask: 0})
	if !hit {
		t.Fatal("trace not buffered")
	}
	if !tr.EndsInIndirect || tr.Len() != 2 {
		t.Errorf("trace = %+v", tr)
	}
	if tr.Succ != 0 {
		t.Errorf("succ = 0x%x, want 0 (unknown)", tr.Succ)
	}
}

// TestResolveIndirects: with the extension enabled and a trained target
// buffer, the region continues past an indirect jump.
func TestResolveIndirects(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Label("start")
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.JumpReg(5)
	b.Label("landing")
	b.ALUI(isa.OpAddI, 2, 2, 1)
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	start, _ := im.Lookup("start")
	landing, _ := im.Lookup("landing")

	run := func(resolve, train bool) uint64 {
		cfg := DefaultConfig()
		cfg.ResolveIndirects = resolve
		r := newRig(t, im, cfg)
		if train {
			r.itb.Update(start+4, landing)
		}
		observe(r.eng, emulator.Dyn{PC: start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
		r.eng.Step(50)
		return r.eng.Stats().TracesBuilt
	}
	if got := run(false, true); got != 1 {
		t.Errorf("paper mode built %d traces, want 1 (ends at jr)", got)
	}
	if got := run(true, false); got != 1 {
		t.Errorf("untrained buffer built %d traces, want 1", got)
	}
	if got := run(true, true); got != 2 {
		t.Errorf("extension built %d traces, want 2 (continues at landing)", got)
	}
}

// TestConstructorFollowsCalls: the constructor walks through calls and
// returns using its internal call stack, so traces span call boundaries.
func TestConstructorFollowsCalls(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Label("start")
	b.ALUI(isa.OpAddI, 1, 1, 1)
	b.Call("leaf")
	b.ALUI(isa.OpAddI, 2, 2, 1)
	b.Halt()
	b.Label("leaf")
	b.ALUI(isa.OpAddI, 3, 3, 1)
	b.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, im, DefaultConfig())
	start, _ := im.Lookup("start")
	observe(r.eng, emulator.Dyn{PC: start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	r.eng.Step(50)
	// First trace: addi, jal, leaf-addi, ret (ends at return).
	tr, hit := r.buf.Take(trace.ID{Start: start, NumBr: 0, Mask: 0})
	if !hit {
		t.Fatalf("trace not buffered; stats=%+v", r.eng.Stats())
	}
	if !tr.EndsInReturn || tr.Len() != 4 {
		t.Fatalf("trace = %v len=%d", tr, tr.Len())
	}
	// Its successor (the instruction after the call) must have been
	// constructed too, because the internal call stack resolved the
	// return target.
	if tr.Succ != start+8 {
		t.Errorf("succ = 0x%x, want 0x%x", tr.Succ, start+8)
	}
	if _, hit := r.buf.Take(trace.ID{Start: start + 8, NumBr: 0, Mask: 0}); !hit {
		t.Error("successor trace after return not constructed")
	}
}

// TestPrefetchCapTerminatesRegion: a tiny prefetch cache bounds the
// region's static reach.
func TestPrefetchCapTerminatesRegion(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Label("start")
	for i := 0; i < 200; i++ {
		b.ALUI(isa.OpAddI, 1, 1, 1)
	}
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PrefetchInstrs = 32 // 2 lines only
	r := newRig(t, im, cfg)
	start, _ := im.Lookup("start")
	observe(r.eng, emulator.Dyn{PC: start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	r.eng.Step(100)
	st := r.eng.Stats()
	if st.RegionsExhausted != 1 {
		t.Errorf("exhausted = %d; stats=%+v", st.RegionsExhausted, st)
	}
	if st.LinesFetched > 2 {
		t.Errorf("fetched %d lines with a 2-line cache", st.LinesFetched)
	}
}

// TestEngineSharesICache: engine fetches populate the shared i-cache, so
// later slow-path fetches of the same lines hit.
func TestEngineSharesICache(t *testing.T) {
	im := buildCallProgram(t)
	r := newRig(t, im, DefaultConfig())
	after, _ := im.Lookup("after")
	observe(r.eng, emulator.Dyn{PC: after - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	r.eng.Step(100)
	if r.eng.Stats().ICacheMisses == 0 {
		t.Fatal("engine recorded no i-cache misses on a cold cache")
	}
	if !r.ic.Probe(r.ic.LineAddr(after)) {
		t.Error("region code not resident in shared i-cache")
	}
}

func TestIdleColdEngine(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.Halt()
	im, _ := b.Build()
	r := newRig(t, im, DefaultConfig())
	if !r.eng.Idle() {
		t.Error("cold engine not idle")
	}
	r.eng.Step(10)
	if !r.eng.Idle() {
		t.Error("engine became busy with empty stack")
	}
	if r.eng.Stats().WorkUnits != 10 {
		t.Errorf("work units = %d", r.eng.Stats().WorkUnits)
	}
}

// TestTimeCallSamplesOneInSixteen: MeasureOverhead times about one call
// in overheadSample, and every call position within a period of
// overheadSample calls gets timed, so the choice locks onto no loop of
// that period or a divisor of it.
func TestTimeCallSamplesOneInSixteen(t *testing.T) {
	e := &Engine{clockDraw: 1}
	const calls = 1 << 16
	var byPos [overheadSample]int
	timed := 0
	for i := 0; i < calls; i++ {
		if e.timeCall() {
			timed++
			byPos[i%overheadSample]++
		}
	}
	if want := calls / overheadSample; timed < want*9/10 || timed > want*11/10 {
		t.Errorf("%d of %d calls timed, want about %d", timed, calls, want)
	}
	for pos, n := range byPos {
		if n < calls/overheadSample/overheadSample/2 {
			t.Errorf("call position %d of each %d timed %d times", pos, overheadSample, n)
		}
	}
}

func BenchmarkEngineStep(b *testing.B) {
	bb := program.NewBuilder(0x1000)
	bb.Label("start")
	for i := 0; i < 500; i++ {
		bb.ALUI(isa.OpAddI, 1, 1, 1)
	}
	bb.Halt()
	im, err := bb.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := benchEngine(b, im, DefaultConfig())
	start, _ := im.Lookup("start")
	call := &trace.Trace{PCs: []uint32{start - 4}, Insts: []isa.Inst{{Op: isa.OpJal, Target: 0x9000}}, Starts: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(call)
		eng.Step(4)
	}
}
