package precon

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tracepre/internal/bpred"
	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/program"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
	"tracepre/internal/workload"
)

// diffSetup is one differential configuration: the engine's, the
// i-cache line, the sizes of the trace cache and buffers, and the level
// behind the i-cache.
type diffSetup struct {
	cfg       Config
	icLine    int
	tcEntries int
	pbEntries int
	mem       mem.Config
}

// diffSetups vary what the engine's paths depend on: line geometry
// (where straight-line runs stop), stack depth (overflow), prefetch
// capacity (exhaustion), decision depth and constructors (forking),
// indirect resolution, buffer size (region-priority refusals) and a
// modeled L2 with one MSHR (admission denials).
func diffSetups() []diffSetup {
	small := DefaultConfig()
	small.StackDepth = 3
	small.PrefetchInstrs = 64
	small.DecisionDepth = 2
	small.NumConstructors = 2
	resolve := DefaultConfig()
	resolve.ResolveIndirects = true
	resolve.DecisionDepth = 6
	modeled := mem.DefaultModeledL2()
	modeled.MSHRs = 1
	return []diffSetup{
		{cfg: DefaultConfig(), icLine: 64, tcEntries: 64, pbEntries: 64},
		{cfg: small, icLine: 32, tcEntries: 32, pbEntries: 8},
		{cfg: resolve, icLine: 128, tcEntries: 128, pbEntries: 256},
		{cfg: DefaultConfig(), icLine: 16, tcEntries: 64, pbEntries: 16, mem: modeled},
	}
}

// insertEvent is one call to the buffers' Insert.
type insertEvent struct {
	id     trace.ID
	region uint64
	ok     bool
}

// recordingBuffers logs every Insert the engine makes.
type recordingBuffers struct {
	*tracecache.Buffers
	log *[]insertEvent
}

func (b recordingBuffers) Insert(tr *trace.Trace, region uint64) bool {
	id := tr.ID() // Insert may release tr
	ok := b.Buffers.Insert(tr, region)
	*b.log = append(*b.log, insertEvent{id, region, ok})
	return ok
}

// delivery is one constructed trace as the trace hook saw it.
type delivery struct {
	id    trace.ID
	pcs   []uint32
	insts []isa.Inst
	start StartPoint
}

// diffRig is one side of the differential test: an engine's own
// predictors, i-cache, hierarchy, port, store, trace cache and buffers,
// and what the engine did since the last comparison.
type diffRig struct {
	bim       *bpred.Bimodal
	itb       *bpred.TargetBuffer
	ic        *cache.Cache
	port      *SlowPathPort
	store     *trace.Store
	tc        *tracecache.TraceCache
	buf       *tracecache.Buffers
	inserts   []insertEvent
	delivered []delivery
}

func newDiffRig(tb testing.TB, s diffSetup) (*diffRig, recordingBuffers) {
	tb.Helper()
	r := &diffRig{store: trace.NewStore()}
	var h *mem.Hierarchy
	var errs [6]error
	r.bim, errs[0] = bpred.NewBimodal(1 << 12)
	r.itb, errs[1] = bpred.NewTargetBuffer(1 << 8)
	r.ic, errs[2] = cache.New(cache.Config{SizeBytes: 16 * 1024, LineBytes: s.icLine, Assoc: 2})
	h, errs[3] = mem.New(s.mem, 10)
	r.tc, errs[4] = tracecache.New(tracecache.Config{Entries: s.tcEntries, Assoc: 2}, r.store)
	r.buf, errs[5] = tracecache.NewBuffers(tracecache.Config{Entries: s.pbEntries, Assoc: 2}, r.store)
	if err := errors.Join(errs[:]...); err != nil {
		tb.Fatal(err)
	}
	r.port = NewSlowPathPort(r.ic, h)
	return r, recordingBuffers{r.buf, &r.inserts}
}

func (r *diffRig) hook(tr *trace.Trace, sp StartPoint) {
	r.delivered = append(r.delivered, delivery{tr.ID(), slices.Clone(tr.PCs), slices.Clone(tr.Insts), sp})
}

// supply serves a demanded trace as the frontend does: the trace cache,
// then the buffers (a hit moves into the trace cache), else a slow-path
// build that fetches its lines through the port and fills the cache.
func (r *diffRig) supply(tr *trace.Trace, now uint64) {
	id := tr.ID()
	if _, hit := r.tc.Lookup(id); hit {
		return
	}
	if got, hit := r.buf.Take(id); hit {
		r.tc.Insert(got)
		return
	}
	last := ^uint32(0)
	for _, pc := range tr.PCs {
		if line := r.ic.LineAddr(pc); line != last {
			r.port.DemandAccess(line, now)
			last = line
		}
	}
	r.tc.Insert(r.store.Intern(tr))
}

// train updates the predictors from a trace's resolved stream.
func (r *diffRig) train(dyns []emulator.Dyn) {
	for i := range dyns {
		d := &dyns[i]
		switch d.Inst.Classify() {
		case isa.ClassBranch:
			r.bim.Update(d.PC, d.Taken)
		case isa.ClassJumpInd:
			r.itb.Update(d.PC, d.NextPC)
		}
	}
}

// diffDriver runs the engine and the reference engine side by side.
type diffDriver struct {
	tb       testing.TB
	what     string
	eng      *Engine
	ref      *refEngine
	a, b     *diffRig // the engine's rig and the reference's
	calls    int
	distinct map[trace.ID]bool // every ID either side inserted
}

func newDiffDriver(tb testing.TB, what string, im *program.Image, s diffSetup) *diffDriver {
	tb.Helper()
	d := &diffDriver{tb: tb, what: what, distinct: map[trace.ID]bool{}}
	sel := trace.DefaultSelectConfig()
	var bufA, bufB recordingBuffers
	d.a, bufA = newDiffRig(tb, s)
	d.b, bufB = newDiffRig(tb, s)
	var errA, errB error
	d.eng, errA = New(s.cfg, sel, im, d.a.bim, d.a.itb, d.a.port, d.a.tc, bufA, d.a.store)
	d.ref, errB = newRefEngine(s.cfg, sel, im, d.b.bim, d.b.itb, d.b.port, d.b.tc, bufB, d.b.store)
	if err := errors.Join(errA, errB); err != nil {
		tb.Fatal(err)
	}
	d.eng.SetTraceHook(d.a.hook)
	d.ref.SetTraceHook(d.b.hook)
	return d
}

// check fails the test unless both engines did the same since the last
// check: equal engine and port counters, stack depth and idleness, the
// same buffer inserts and buffer counters and occupancy, and the same
// constructed traces, each with its region's start point.
func (d *diffDriver) check(call string) {
	d.tb.Helper()
	d.calls++
	a, b := d.a, d.b
	fail := func(format string, args ...any) {
		d.tb.Helper()
		d.tb.Fatalf("%s: call %d (%s): %s", d.what, d.calls, call, fmt.Sprintf(format, args...))
	}
	if ga, gb := d.eng.Stats(), d.ref.Stats(); ga != gb {
		fail("engine stats\n got %+v\nwant %+v", ga, gb)
	}
	if ga, gb := a.port.Stats(), b.port.Stats(); ga != gb {
		fail("port stats\n got %+v\nwant %+v", ga, gb)
	}
	if d.eng.StackDepth() != d.ref.StackDepth() || d.eng.Idle() != d.ref.Idle() {
		fail("stack depth %d idle %v, want %d %v", d.eng.StackDepth(), d.eng.Idle(), d.ref.StackDepth(), d.ref.Idle())
	}
	if !slices.Equal(a.inserts, b.inserts) {
		fail("buffer inserts\n got %v\nwant %v", a.inserts, b.inserts)
	}
	for _, ev := range a.inserts {
		d.distinct[ev.id] = true
	}
	if a.buf.Stats() != b.buf.Stats() || a.buf.Occupancy() != b.buf.Occupancy() {
		fail("buffers %+v/%d, want %+v/%d", a.buf.Stats(), a.buf.Occupancy(), b.buf.Stats(), b.buf.Occupancy())
	}
	if len(a.delivered) != len(b.delivered) {
		fail("%d traces delivered, want %d", len(a.delivered), len(b.delivered))
	}
	for i, x := range a.delivered {
		y := b.delivered[i]
		if x.id != y.id || x.start != y.start || !slices.Equal(x.pcs, y.pcs) || !slices.Equal(x.insts, y.insts) {
			fail("delivery %d: %v from %+v, want %v from %+v", i, x.id, x.start, y.id, y.start)
		}
	}
	a.inserts, b.inserts = a.inserts[:0], b.inserts[:0]
	a.delivered, b.delivered = a.delivered[:0], b.delivered[:0]
}

// checkContents fails the test unless both buffers hold the same traces
// among every trace either engine ever inserted.
func (d *diffDriver) checkContents() {
	d.tb.Helper()
	for id := range d.distinct {
		if d.a.buf.Contains(id) != d.b.buf.Contains(id) {
			d.tb.Fatalf("%s: buffers disagree on %v", d.what, id)
		}
	}
}

// run feeds the demanded traces of a committed stream to both engines
// as the frontend does, comparing after every call: the demand-fetch
// notice and supply, a wrong-path replay of an earlier trace on about a
// third of the traces (through the frontend's rule for each engine),
// idle work units at a clock that advances with the stream, retirement,
// and predictor training.
func (d *diffDriver) run(dyns []emulator.Dyn, rng *rand.Rand) {
	d.tb.Helper()
	seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
	var history []*trace.Trace
	now := uint64(0)
	for len(dyns) > 0 {
		used, tr, tdyns := seg.Feed(dyns)
		if tr == nil {
			break
		}
		dyns = dyns[used:]

		d.eng.OnDemandFetch(tr.PCs[0])
		d.ref.OnDemandFetch(tr.PCs[0])
		d.check("OnDemandFetch")
		d.a.supply(tr, now)
		d.b.supply(tr, now)
		d.check("supply")

		if len(history) > 0 && rng.Intn(3) == 0 {
			wrong := history[rng.Intn(len(history))]
			if wrong.Starts != 0 {
				d.eng.ObserveSpeculative(wrong)
				d.eng.FlushSpeculation()
			}
			br := 0
			for k, in := range wrong.Insts {
				dy := emulator.Dyn{PC: wrong.PCs[k], Inst: in}
				if in.IsBranch() {
					dy.Taken = wrong.BrMask&(1<<br) != 0
					br++
				}
				d.ref.ObserveSpeculative(dy)
			}
			d.ref.FlushSpeculation()
			d.check("wrong-path replay")
		}

		units := rng.Intn(12)
		d.a.port.SetClock(now)
		d.b.port.SetClock(now)
		d.eng.Step(units)
		d.ref.Step(units)
		d.check(fmt.Sprintf("Step(%d)", units))
		d.eng.Observe(tr)
		d.ref.ObserveBatch(tdyns)
		d.check("Observe")
		d.a.train(tdyns)
		d.b.train(tdyns)
		now += uint64(units + tr.Len())

		if len(history) < 64 {
			history = append(history, tr.Clone())
		} else {
			history[rng.Intn(len(history))] = tr.Clone()
		}
	}
	// Drain what the stream left stacked and active.
	for i := 0; i < 64 && !d.ref.Idle(); i++ {
		d.eng.Step(16)
		d.ref.Step(16)
		d.check("drain")
	}
	d.checkContents()
}

// recordDyns commits up to n instructions of im from its entry,
// restarting after a halt or a fault, and returns the committed stream.
func recordDyns(im *program.Image, n int) []emulator.Dyn {
	var dyns []emulator.Dyn
	for restarts := 0; len(dyns) < n && restarts < 64; restarts++ {
		before := len(dyns)
		// A fault ends this pass with what committed before it; the next
		// pass restarts from the entry.
		_, _ = emulator.New(im).Run(uint64(n-len(dyns)), func(d emulator.Dyn) { dyns = append(dyns, d) })
		if len(dyns) == before {
			break
		}
	}
	return dyns
}

// TestEngineMatchesReference drives the engine and the reference engine
// (reference_test.go) through identical calls over generated programs
// of four benchmarks at several generator seeds, under each setup, and
// requires identical behaviour after every call.
func TestEngineMatchesReference(t *testing.T) {
	n, seeds := 60_000, []int64{0, 1, 2}
	if testing.Short() {
		n, seeds = 15_000, []int64{0}
	}
	for _, bench := range []string{"gcc", "go", "li", "vortex"} {
		for _, seed := range seeds {
			p, err := workload.ByName(bench)
			if err != nil {
				t.Fatal(err)
			}
			p.Seed += seed
			im, err := workload.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			dyns := recordDyns(im, n)
			for i, s := range diffSetups() {
				what := fmt.Sprintf("%s seed %d setup %d", bench, seed, i)
				t.Run(fmt.Sprintf("%s/%d/%d", bench, seed, i), func(t *testing.T) {
					d := newDiffDriver(t, what, im, s)
					d.run(dyns, rand.New(rand.NewSource(seed*31+int64(i))))
					if d.eng.Stats().TracesBuilt == 0 {
						t.Errorf("%s: the engine built no traces", what)
					}
				})
			}
		}
	}
}

// fuzzImage builds a program of at most 96 instructions at 0x1000 from
// prog, two bytes per instruction: mostly straight-line code, with
// branches either way, jumps and calls within the image, returns,
// indirect jumps and calls, and halts.
func fuzzImage(prog []byte) (*program.Image, error) {
	const base = 0x1000
	n := min(len(prog)/2, 96)
	b := program.NewBuilder(base)
	for k := 0; k < n; k++ {
		op, v := prog[2*k], prog[2*k+1]
		target := base + uint32(int(v)%n)*isa.WordSize
		switch op % 16 {
		case 0, 1:
			disp := (int32(v)%24 - 12) * isa.WordSize
			if disp == 0 {
				disp = isa.WordSize
			}
			b.Emit(isa.Inst{Op: isa.OpBne, Ra: op / 16 % 4, Rb: v % 4, Imm: disp})
		case 2:
			b.Emit(isa.Inst{Op: isa.OpJmp, Target: target})
		case 3:
			b.Emit(isa.Inst{Op: isa.OpJal, Target: target})
		case 4:
			b.Ret()
		case 5:
			if v%8 == 0 {
				b.Halt()
			} else {
				b.JumpReg(v % 4)
			}
		case 6:
			b.CallReg(v % 4)
		case 7:
			b.Load(v%4, 0, int32(v))
		case 8:
			b.Store(v%4, 0, int32(v))
		default:
			b.ALUI(isa.OpAddI, op/16%4, v%4, int32(v%7)-3)
		}
	}
	b.Halt()
	return b.Build()
}

// FuzzEngine holds the engine to the reference engine over small
// fuzzed images, as TestEngineMatchesReference does over generated
// programs.
func FuzzEngine(f *testing.F) {
	// A call whose return point starts a weak branch out of the image.
	f.Add([]byte{3, 2, 0, 0, 9, 1, 4, 0}, uint8(0), int64(0))
	f.Add([]byte{9, 1, 9, 2, 0, 3, 3, 9, 4, 0, 9, 5, 9, 6, 9, 7}, uint8(0), int64(1))
	f.Add([]byte{9, 0, 9, 0, 1, 7, 9, 0, 3, 12, 5, 1, 9, 1, 9, 2, 4, 0, 9, 3, 9, 4, 6, 2}, uint8(1), int64(2))
	f.Add([]byte{7, 1, 8, 2, 9, 3, 0, 200, 2, 0, 3, 5, 4, 4}, uint8(2), int64(3))
	f.Add([]byte{9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 0, 240, 9, 9, 4, 0}, uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, prog []byte, setup uint8, seed int64) {
		im, err := fuzzImage(prog)
		if err != nil {
			t.Skip(err)
		}
		ss := diffSetups()
		s := ss[int(setup)%len(ss)]
		rng := rand.New(rand.NewSource(seed))
		// Registers start at zero, so the stream alone rarely reaches
		// the whole image: train the predictors with random outcomes
		// first, identically on both sides, so walks fork and resolve
		// indirect jumps anywhere.
		d := newDiffDriver(t, fmt.Sprintf("setup %d seed %d", setup, seed), im, s)
		for pc := im.Base; pc < im.End(); pc += isa.WordSize {
			in, _ := im.At(pc)
			for i := rng.Intn(4); i > 0; i-- {
				taken, target := rng.Intn(2) == 0, im.Base+uint32(rng.Intn(im.NumInstrs()+2))*isa.WordSize
				if rng.Intn(8) == 0 {
					target += 2 // misaligned
				}
				if in.IsBranch() {
					d.a.bim.Update(pc, taken)
					d.b.bim.Update(pc, taken)
				} else if in.Classify() == isa.ClassJumpInd {
					d.a.itb.Update(pc, target)
					d.b.itb.Update(pc, target)
				}
			}
		}
		d.run(recordDyns(im, 3000), rng)
	})
}
