package pipeline

import (
	"math/rand"
	"testing"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/trace"
)

// testBackendWith wires a backend to a fresh data cache of geometry
// dcfg and the memory level selected by level, whose perfect L2 has the
// default latency.
func testBackendWith(t testing.TB, dcfg cache.Config, level mem.Config) *backend {
	t.Helper()
	dc, err := cache.New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.New(level, DefaultConfig().L2Lat)
	if err != nil {
		t.Fatal(err)
	}
	return newBackend(dc, h, newAnalysisTable())
}

// testBackend is the backend over the paper's data cache and
// fixed-latency L2.
func testBackend(t testing.TB) *backend {
	return testBackendWith(t, DCache, mem.Config{})
}

// mkTrace builds a trace and matching dyn records at sequential PCs.
func mkTrace(insts ...isa.Inst) (*trace.Trace, []emulator.Dyn) {
	pcs := make([]uint32, len(insts))
	dyns := make([]emulator.Dyn, len(insts))
	for i := range insts {
		pcs[i] = 0x1000 + uint32(i*4)
		dyns[i] = emulator.Dyn{PC: pcs[i], Inst: insts[i], MemAddr: 0x20000 + uint32(i*4)}
	}
	return &trace.Trace{PCs: pcs, Insts: insts}, dyns
}

func TestBackendSerialChain(t *testing.T) {
	be := testBackend(t)
	// Four dependent single-cycle adds: retire at start + 4.
	tr, dyns := mkTrace(
		isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 1},
		isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 1},
		isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 1},
		isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: 1},
	)
	retire, _ := be.dispatch(tr, dyns, 100, false)
	if retire != 104 {
		t.Errorf("retire = %d, want 104", retire)
	}
}

func TestBackendDualIssue(t *testing.T) {
	be := testBackend(t)
	// Four independent adds, 2-way issue: 2 cycles.
	tr, dyns := mkTrace(
		isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 0, Imm: 1},
		isa.Inst{Op: isa.OpAddI, Rd: 2, Ra: 0, Imm: 1},
		isa.Inst{Op: isa.OpAddI, Rd: 3, Ra: 0, Imm: 1},
		isa.Inst{Op: isa.OpAddI, Rd: 4, Ra: 0, Imm: 1},
	)
	retire, _ := be.dispatch(tr, dyns, 100, false)
	if retire != 102 {
		t.Errorf("retire = %d, want 102", retire)
	}
}

func TestBackendIssueWidthRespected(t *testing.T) {
	be := testBackend(t)
	insts := make([]isa.Inst, 8)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.OpAddI, Rd: uint8(i + 1), Ra: 0, Imm: 1}
	}
	tr, dyns := mkTrace(insts...)
	retire, _ := be.dispatch(tr, dyns, 0, false)
	// 8 independent 1-cycle ops at 2/cycle: last issues at cycle 3,
	// completes at 4.
	if retire != 4 {
		t.Errorf("retire = %d, want 4", retire)
	}
}

func TestBackendCrossPETransfer(t *testing.T) {
	be := testBackend(t)
	// Trace 1 on PE0 produces r1 at some cycle; trace 2 on PE1 consumes
	// it with the +2 bus latency.
	t1, d1 := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 0, Imm: 5})
	r1, _ := be.dispatch(t1, d1, 100, false)
	if r1 != 101 {
		t.Fatalf("producer retire = %d", r1)
	}
	t2, d2 := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: 2, Ra: 1, Imm: 1})
	r2, _ := be.dispatch(t2, d2, 100, false)
	// Consumer on PE1: r1 ready at 101 + 2 (xfer) = 103; done 104.
	if r2 != 104 {
		t.Errorf("consumer retire = %d, want 104", r2)
	}
}

func TestBackendSamePENoTransfer(t *testing.T) {
	be := testBackend(t)
	t1, d1 := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 0, Imm: 5})
	be.dispatch(t1, d1, 100, false)
	// Three unrelated traces take PEs 1-3, so the consumer comes back
	// round to the producer's PE 0.
	for i := 1; i < numPEs; i++ {
		tr, d := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: uint8(8 + i), Ra: 0, Imm: 1})
		be.dispatch(tr, d, 100, false)
	}
	t2, d2 := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: 2, Ra: 1, Imm: 1})
	r2, _ := be.dispatch(t2, d2, 100, false)
	// Same PE: no transfer, but the PE is busy until 101; issue 101,
	// done 102.
	if r2 != 102 {
		t.Errorf("same-PE consumer retire = %d, want 102", r2)
	}
}

func TestBackendLoadLatencyAndMiss(t *testing.T) {
	be := testBackend(t)
	tr, dyns := mkTrace(
		isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 2, Imm: 0},
		isa.Inst{Op: isa.OpAddI, Rd: 3, Ra: 1, Imm: 1},
	)
	retire, _ := be.dispatch(tr, dyns, 0, false)
	// Cold load: issue 0, LoadLat 2 + L2 10 -> done 12; add done 13.
	if retire != 13 {
		t.Errorf("cold-load retire = %d, want 13", retire)
	}
	if be.dcacheMisses != 1 || be.loads != 1 {
		t.Errorf("loads=%d misses=%d", be.loads, be.dcacheMisses)
	}
	// Warm load to the same line.
	tr2, dyns2 := mkTrace(
		isa.Inst{Op: isa.OpLoad, Rd: 4, Ra: 2, Imm: 0},
	)
	dyns2[0].MemAddr = 0x20000
	r2, _ := be.dispatch(tr2, dyns2, 100, false)
	if r2 < 102 || r2 > 103 {
		t.Errorf("warm-load retire = %d", r2)
	}
	if be.dcacheMisses != 1 {
		t.Errorf("warm load missed: %d", be.dcacheMisses)
	}
}

func TestBackendInOrderRetirement(t *testing.T) {
	be := testBackend(t)
	// A slow trace (divide) followed by a fast one: the fast trace must
	// not retire earlier.
	slow, dSlow := mkTrace(isa.Inst{Op: isa.OpDiv, Rd: 1, Ra: 2, Rb: 3})
	rSlow, _ := be.dispatch(slow, dSlow, 0, false)
	fast, dFast := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: 4, Ra: 0, Imm: 1})
	rFast, _ := be.dispatch(fast, dFast, 0, false)
	if rFast < rSlow {
		t.Errorf("out-of-order retirement: %d < %d", rFast, rSlow)
	}
}

// TestBackendLookaheadLimits: in a 16-instruction trace whose first
// stalled instructions fill the lookahead, the independent ones behind
// them wait too; one stalled instruction fewer lets them issue early.
func TestBackendLookaheadLimits(t *testing.T) {
	// stalled returns the retirement of a 16-instruction trace whose
	// first k instructions wait on r1, which a divide on another PE
	// makes ready at 12 + 2 (transfer) = 14; the rest are independent.
	stalled := func(k int) uint64 {
		be := testBackend(t)
		prod, dProd := mkTrace(isa.Inst{Op: isa.OpDiv, Rd: 1, Ra: 2, Rb: 3})
		be.dispatch(prod, dProd, 0, false)
		insts := make([]isa.Inst, 16)
		for i := range insts {
			insts[i] = isa.Inst{Op: isa.OpAddI, Rd: uint8(2 + i), Ra: 0, Imm: 1}
			if i < k {
				insts[i].Ra = 1
			}
		}
		cons, dCons := mkTrace(insts...)
		r, _ := be.dispatch(cons, dCons, 0, false)
		return r
	}
	// The window holds only stalled instructions: nothing issues until
	// 14, then 16 issue two a cycle, the last at 21.
	if got := stalled(lookahead); got != 22 {
		t.Errorf("stalled head filling the lookahead: retire = %d, want 22", got)
	}
	// The six independent instructions issue one a cycle at the
	// window's edge before 14; the nine stalled ones then take 14-18.
	if got := stalled(lookahead - 1); got != 19 {
		t.Errorf("stalled head inside the lookahead: retire = %d, want 19", got)
	}
}

func TestBackendPreprocessedFusionAndFolding(t *testing.T) {
	// shl -> add dependent pair: fused executes the pair together.
	insts := []isa.Inst{
		{Op: isa.OpLoad, Rd: 1, Ra: 2, Imm: 0},
		{Op: isa.OpShlI, Rd: 3, Ra: 1, Imm: 2},
		{Op: isa.OpAdd, Rd: 4, Ra: 3, Rb: 1},
	}
	run := func(preprocessed bool) uint64 {
		be := testBackend(t)
		be.dcache.Access(0x20000) // warm the line
		tr, dyns := mkTrace(insts...)
		for i := range dyns {
			dyns[i].MemAddr = 0x20000
		}
		r, _ := be.dispatch(tr, dyns, 0, preprocessed)
		return r
	}
	plain := run(false)
	fused := run(true)
	if fused >= plain {
		t.Errorf("fusion did not help: %d >= %d", fused, plain)
	}
}

// TestBackendARBIntraTrace: a load following a same-word store inside
// one trace waits for the store's completion.
func TestBackendARBIntraTrace(t *testing.T) {
	be := testBackend(t)
	be.dcache.Access(0x20000) // warm line
	// Store depends on a slow divide; the load must wait for the store.
	insts := []isa.Inst{
		{Op: isa.OpDiv, Rd: 1, Ra: 2, Rb: 3},    // done at 12
		{Op: isa.OpStore, Rb: 1, Ra: 4, Imm: 0}, // waits for r1
		{Op: isa.OpLoad, Rd: 5, Ra: 4, Imm: 0},  // same address
	}
	tr, dyns := mkTrace(insts...)
	for i := range dyns {
		dyns[i].MemAddr = 0x20000
	}
	retire, _ := be.dispatch(tr, dyns, 0, false)
	// div: 0..12; store issues at 12, done 13; load waits for store
	// done (13), issues, +2 = 15.
	if retire < 15 {
		t.Errorf("retire = %d, want >= 15 (load must wait for store)", retire)
	}
	if be.arbForwards != 1 {
		t.Errorf("arbForwards = %d", be.arbForwards)
	}
}

// TestBackendARBCrossTrace: a load in a later trace waits for an
// in-flight store from an earlier trace to the same word.
func TestBackendARBCrossTrace(t *testing.T) {
	be := testBackend(t)
	be.dcache.Access(0x20000)
	// Trace 1: slow store (behind a divide).
	t1, d1 := mkTrace(
		isa.Inst{Op: isa.OpDiv, Rd: 1, Ra: 2, Rb: 3},
		isa.Inst{Op: isa.OpStore, Rb: 1, Ra: 4, Imm: 0},
	)
	d1[0].MemAddr = 0x20000
	d1[1].MemAddr = 0x20000
	be.dispatch(t1, d1, 0, false)
	// Trace 2 (other PE): load from the same word, dispatched early.
	t2, d2 := mkTrace(isa.Inst{Op: isa.OpLoad, Rd: 5, Ra: 4, Imm: 0})
	d2[0].MemAddr = 0x20000
	retire, _ := be.dispatch(t2, d2, 0, false)
	// The store completes at 13; the load cannot finish before 15.
	if retire < 15 {
		t.Errorf("retire = %d, want >= 15", retire)
	}
	if be.arbForwards != 1 {
		t.Errorf("arbForwards = %d", be.arbForwards)
	}
	// A load from an unrelated word is not delayed.
	be2 := testBackend(t)
	be2.dcache.Access(0x20000)
	be2.dcache.Access(0x30000)
	be2.dispatch(t1, d1, 0, false)
	t3, d3 := mkTrace(isa.Inst{Op: isa.OpLoad, Rd: 6, Ra: 4, Imm: 0})
	d3[0].MemAddr = 0x30000
	r3, _ := be2.dispatch(t3, d3, 0, false)
	if r3 >= 15 {
		t.Errorf("unrelated load delayed: retire %d", r3)
	}
}

func TestBackendResolveGating(t *testing.T) {
	be := testBackend(t)
	tr, dyns := mkTrace(
		isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 0, Imm: 1},
		isa.Inst{Op: isa.OpBne, Ra: 1, Rb: 0, Imm: 64},
		isa.Inst{Op: isa.OpAddI, Rd: 2, Ra: 0, Imm: 1},
	)
	retire, resolve := be.dispatch(tr, dyns, 10, false)
	if resolve > retire {
		t.Errorf("resolve %d after retire %d", resolve, retire)
	}
	if resolve <= 10 {
		t.Errorf("resolve = %d not after start", resolve)
	}
	// A trace without control resolves at retirement.
	tr2, dyns2 := mkTrace(isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 0, Imm: 1})
	r2, res2 := be.dispatch(tr2, dyns2, 50, false)
	if res2 != r2 {
		t.Errorf("no-control resolve = %d, retire %d", res2, r2)
	}
}

// TestDispatchSteadyStateAllocs: dispatch keeps its per-trace state in
// the backend's fixed scratch, so a warm backend dispatches plain and
// preprocessed traces behind the modeled L2 without allocating.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type job struct {
		tr   *trace.Trace
		dyns []emulator.Dyn
	}
	jobs := make([]job, 64)
	for k := range jobs {
		tr, dyns := randCtlTrace(r, uint32(0x1000+k*0x100))
		jobs[k] = job{tr, dyns}
	}
	for _, pre := range []bool{false, true} {
		name := "plain"
		if pre {
			name = "preprocessed"
		}
		t.Run(name, func(t *testing.T) {
			be := testBackendWith(t, cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}, mem.DefaultModeledL2())
			k, ready := 0, uint64(0)
			round := func() {
				j := jobs[k%len(jobs)]
				k++
				ready, _ = be.dispatch(j.tr, j.dyns, ready, pre)
			}
			for i := 0; i < 2*len(jobs); i++ {
				round()
			}
			if avg := testing.AllocsPerRun(1000, round); avg != 0 {
				t.Errorf("dispatch allocates %.2f objects per trace, want 0", avg)
			}
		})
	}
}
