package frontend

import (
	"testing"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/precon"
	"tracepre/internal/program"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
)

// testL2Lat is the fixed L2 latency behind the test frontends' i-cache.
const testL2Lat = 10

// testConfig mirrors the fetch-side slice of pipeline.DefaultConfig():
// the paper's machine with preconstruction disabled, over a fresh
// fixed-latency L2 and fresh predictor tables of the paper's size.
func testConfig(t testing.TB) Config {
	t.Helper()
	h, err := mem.New(mem.Config{}, testL2Lat)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewSlowTables()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Select:            trace.DefaultSelectConfig(),
		TraceCache:        tracecache.Config{Entries: 512, Assoc: 2},
		Buffers:           tracecache.BufferConfig{Entries: 0, Assoc: 2},
		ICache:            cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4},
		SlowFetchWidth:    4,
		MispredictPenalty: 5,
		Mem:               h,
		Pred:              tpred.NewTables(tpred.Config{}),
		Slow:              slow,
		Traces:            trace.NewStore(),
		Precon:            precon.DefaultConfig(),
	}
}

// newFrontend builds a frontend, failing the test on a config error.
func newFrontend(t testing.TB, im *program.Image, cfg Config) *Frontend {
	t.Helper()
	f, err := New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// slowRig builds a frontend around a straight-line image so slowPath
// can be called directly on crafted traces.
func slowRig(t *testing.T, n int) *Frontend {
	t.Helper()
	b := program.NewBuilder(0x1000)
	for i := 0; i < n; i++ {
		b.ALUI(isa.OpAddI, 1, 1, 1)
	}
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return newFrontend(t, im, testConfig(t))
}

// mkSeq builds a trace plus dyns from sequential straight-line PCs.
func mkSeq(start uint32, n int) (*trace.Trace, []emulator.Dyn) {
	tr := &trace.Trace{}
	var dyns []emulator.Dyn
	for i := 0; i < n; i++ {
		pc := start + uint32(i*4)
		in := isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 1}
		tr.PCs = append(tr.PCs, pc)
		tr.Insts = append(tr.Insts, in)
		dyns = append(dyns, emulator.Dyn{PC: pc, Inst: in, NextPC: pc + 4})
	}
	tr.Succ = start + uint32(n*4)
	return tr, dyns
}

// TestSlowPathGroupAccounting: a 16-instruction straight-line trace
// within one 64-byte line at width 4 costs exactly 4 busy cycles.
func TestSlowPathGroupAccounting(t *testing.T) {
	f := slowRig(t, 64)
	tr, dyns := mkSeq(0x1000, 16) // 0x1000..0x103c: one line
	fetchLat, busy := f.slowPath(tr, dyns, 0)
	if busy != 4 {
		t.Errorf("busy = %d, want 4", busy)
	}
	// One cold line miss: fetchLat = busy + the L2 latency.
	want := busy + testL2Lat
	if fetchLat != want {
		t.Errorf("fetchLat = %d, want %d", fetchLat, want)
	}
	if f.stats.Slow.Instrs != 16 {
		t.Errorf("Slow.Instrs = %d", f.stats.Slow.Instrs)
	}
	if f.stats.Slow.ICMisses != 1 || f.stats.Slow.ICAccesses != 1 {
		t.Errorf("accesses/misses = %d/%d", f.stats.Slow.ICAccesses, f.stats.Slow.ICMisses)
	}
	// Every instruction came from a line that missed.
	if f.stats.Slow.InstrsFromICMisses != 16 {
		t.Errorf("InstrsFromICMisses = %d", f.stats.Slow.InstrsFromICMisses)
	}
	// The port saw the same demand traffic the slow path counted, and
	// charged the busy cycles to the demand side.
	if ps := f.port.Stats(); ps.DemandAccesses != 1 || ps.DemandBusyCycles != busy {
		t.Errorf("port demand accesses/busy = %d/%d, want 1/%d",
			ps.DemandAccesses, ps.DemandBusyCycles, busy)
	}
}

// TestSlowPathWarmLine: refetching the same line is miss-free and
// contributes no miss-supplied instructions.
func TestSlowPathWarmLine(t *testing.T) {
	f := slowRig(t, 64)
	tr, dyns := mkSeq(0x1000, 16)
	f.slowPath(tr, dyns, 0)
	missBefore := f.stats.Slow.ICMisses
	fetchLat, busy := f.slowPath(tr, dyns, 0)
	if f.stats.Slow.ICMisses != missBefore {
		t.Error("warm refetch missed")
	}
	if fetchLat != busy {
		t.Errorf("warm fetchLat %d != busy %d", fetchLat, busy)
	}
	if f.stats.Slow.InstrsFromICMisses != 16 {
		t.Errorf("warm instructions counted as miss-supplied: %d", f.stats.Slow.InstrsFromICMisses)
	}
}

// TestSlowPathLineCrossing: a trace spanning two lines costs two
// accesses and the line boundary starts a new fetch group.
func TestSlowPathLineCrossing(t *testing.T) {
	f := slowRig(t, 64)
	// Start 2 instructions before a line boundary: 0x1038..0x1077.
	tr, dyns := mkSeq(0x1038, 8)
	_, busy := f.slowPath(tr, dyns, 0)
	if f.stats.Slow.ICAccesses != 2 {
		t.Errorf("accesses = %d, want 2", f.stats.Slow.ICAccesses)
	}
	// Groups: [2 instrs][4][2] = 3 busy cycles.
	if busy != 3 {
		t.Errorf("busy = %d, want 3", busy)
	}
}

// TestSlowPathTakenBranchBreaksGroup: noncontiguous PCs force a new
// group even within one line.
func TestSlowPathTakenBranchBreaksGroup(t *testing.T) {
	f := slowRig(t, 64)
	tr := &trace.Trace{}
	var dyns []emulator.Dyn
	add := func(pc uint32, in isa.Inst, d emulator.Dyn) {
		tr.PCs = append(tr.PCs, pc)
		tr.Insts = append(tr.Insts, in)
		dyns = append(dyns, d)
	}
	// Branch at 0x1000 jumps to 0x1020 (same line).
	br := isa.Inst{Op: isa.OpBne, Ra: 1, Rb: 0, Imm: 0x20}
	add(0x1000, br, emulator.Dyn{PC: 0x1000, Inst: br, Taken: true, NextPC: 0x1020})
	in := isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 1}
	add(0x1020, in, emulator.Dyn{PC: 0x1020, Inst: in, NextPC: 0x1024})
	add(0x1024, in, emulator.Dyn{PC: 0x1024, Inst: in, NextPC: 0x1028})
	_, busy := f.slowPath(tr, dyns, 0)
	if f.stats.Slow.ICAccesses != 1 {
		t.Errorf("accesses = %d, want 1 (same line)", f.stats.Slow.ICAccesses)
	}
	if busy != 2 {
		t.Errorf("busy = %d, want 2 (branch splits the group)", busy)
	}
}

// TestSlowPathBranchPenalties: bimodal mispredictions charge the
// configured penalty into the fetch latency.
func TestSlowPathBranchPenalties(t *testing.T) {
	f := slowRig(t, 64)
	br := isa.Inst{Op: isa.OpBne, Ra: 1, Rb: 0, Imm: 0x40}
	tr := &trace.Trace{PCs: []uint32{0x1000}, Insts: []isa.Inst{br}}
	dyns := []emulator.Dyn{{PC: 0x1000, Inst: br, Taken: false, NextPC: 0x1004}}
	// Reset state is weakly taken; the not-taken outcome mispredicts.
	fetchLat, busy := f.slowPath(tr, dyns, 0)
	wantPenalty := uint64(f.cfg.MispredictPenalty)
	if fetchLat < busy+wantPenalty {
		t.Errorf("fetchLat %d missing mispredict penalty", fetchLat)
	}
	if f.stats.Slow.BranchMisp != 1 {
		t.Errorf("mispredicts = %d", f.stats.Slow.BranchMisp)
	}
}

// TestSlowPathRASPenalty: a return with an empty or wrong RAS charges a
// penalty; after a matching call it does not.
func TestSlowPathRASPenalty(t *testing.T) {
	f := slowRig(t, 64)
	ret := isa.Inst{Op: isa.OpJr, Ra: isa.RegLink}
	tr := &trace.Trace{PCs: []uint32{0x1000}, Insts: []isa.Inst{ret}, EndsInReturn: true}
	dyns := []emulator.Dyn{{PC: 0x1000, Inst: ret, NextPC: 0x2004}}
	f.slowPath(tr, dyns, 0)
	if f.stats.Slow.BranchMisp != 1 {
		t.Fatalf("empty-RAS return not penalized: %d", f.stats.Slow.BranchMisp)
	}
	// Now a call followed by the matching return predicts cleanly.
	call := isa.Inst{Op: isa.OpJal, Target: 0x1000}
	trCall := &trace.Trace{PCs: []uint32{0x2000}, Insts: []isa.Inst{call}}
	dynsCall := []emulator.Dyn{{PC: 0x2000, Inst: call, NextPC: 0x1000}}
	f.slowPath(trCall, dynsCall, 0)
	before := f.stats.Slow.BranchMisp
	f.slowPath(tr, dyns, 0)
	if f.stats.Slow.BranchMisp != before {
		t.Errorf("matched return penalized")
	}
}
