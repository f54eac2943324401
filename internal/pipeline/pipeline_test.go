package pipeline

import (
	"reflect"
	"runtime"
	"testing"

	"tracepre/internal/frontend"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/program"
	"tracepre/internal/tpred"
	"tracepre/internal/tracecache"
)

// loopImage builds a program that repeats the same control flow many
// times: a counted loop around a call, so the trace working set is tiny
// and the trace cache gets hot quickly.
func loopImage(t testing.TB, iters int32) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, iters)
	b.Label("loop")
	b.Call("work")
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	b.Label("work")
	for i := 0; i < 10; i++ {
		b.ALUI(isa.OpAddI, 2, 2, 1)
	}
	b.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// newSim builds a simulator for im, failing the test on a config error.
func newSim(t testing.TB, im *program.Image, cfg Config) *Simulator {
	t.Helper()
	sim, err := New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	mutate := []func(*Config){
		func(c *Config) { c.Select.MaxLen = 0 },
		func(c *Config) { c.TraceCache.Entries = 0 },
		func(c *Config) { c.Buffers = tracecache.Config{Entries: 48, Assoc: 2} },
		func(c *Config) { c.ICache.SizeBytes = 0 },
		func(c *Config) { c.SlowFetchWidth = 0 },
		func(c *Config) { c.MispredictPenalty = -1 },
		func(c *Config) { c.FrontendIPC = 0 },
		// Fast-forward drains at FrontendIPC under full timing too.
		func(c *Config) { c.FullTiming = true; c.FrontendIPC = 0 },
		func(c *Config) { c.Backend.NumPEs = 0 },
		func(c *Config) { c.Backend.Lookahead = 0 },
		func(c *Config) { c.Buffers.Entries = 64; c.Precon.StackDepth = 0 },
		// Adaptive partition: requires precon; the unified store must
		// itself be a valid trace-cache geometry.
		func(c *Config) { c.AdaptivePartition = true; c.Buffers.Entries = 0 },
		func(c *Config) { c.AdaptivePartition = true; c.TraceCache.Assoc = 0 },
		// Backend latency error paths.
		func(c *Config) { c.Backend.IssuePerPE = 0 },
		func(c *Config) { c.Backend.XferLat = -1 },
		func(c *Config) { c.Backend.LoadLat = 0 },
		func(c *Config) { c.Backend.MulLat = 0 },
		func(c *Config) { c.Backend.DivLat = 0 },
		func(c *Config) { c.Backend.L2Lat = -1 },
		// Memory-hierarchy config error paths (mem.Config.Validate).
		func(c *Config) { c.Mem.ModelL2 = true },
		func(c *Config) { c.Mem = mem.DefaultModeledL2(); c.Mem.MSHRs = 0 },
		func(c *Config) { c.Mem = mem.DefaultModeledL2(); c.Mem.HitLat = -1 },
		func(c *Config) { c.Mem = mem.DefaultModeledL2(); c.Mem.L2.LineBytes = 48 },
	}
	im := loopImage(t, 5)
	for i, m := range mutate {
		c := DefaultConfig()
		c.Buffers.Entries = 64 // exercise buffer/precon validation paths
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: Validate = nil", i)
		}
		if _, err := New(im, c); err == nil {
			t.Errorf("mutation %d: New succeeded", i)
		}
	}
}

func TestConfigBuilders(t *testing.T) {
	c := DefaultConfig().WithTraceCache(128).WithPrecon(64)
	if c.TraceCache.Entries != 128 || c.Buffers.Entries != 64 {
		t.Errorf("builders: %+v", c)
	}
	if !c.PreconEnabled() {
		t.Error("PreconEnabled = false")
	}
	if DefaultConfig().PreconEnabled() {
		t.Error("default has precon enabled")
	}
}

func TestRunAccountsInstructions(t *testing.T) {
	im := loopImage(t, 50)
	sim := newSim(t, im, DefaultConfig())
	res, err := sim.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 50*(1+12+2) ... just sanity: every counted instruction is in
	// a trace of <= 16 instructions, and the halt arrives.
	if res.Instructions == 0 || res.Traces == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Instructions > 10_000 {
		t.Errorf("instructions %d exceed budget", res.Instructions)
	}
	if res.Instructions < 50*13 {
		t.Errorf("instructions %d too few", res.Instructions)
	}
	if res.Cycles == 0 {
		t.Error("no cycles charged")
	}
}

func TestHotLoopHitsTraceCache(t *testing.T) {
	im := loopImage(t, 500)
	sim := newSim(t, im, DefaultConfig())
	res, err := sim.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TCMisses > res.Traces/10 {
		t.Errorf("hot loop misses %d of %d traces", res.TCMisses, res.Traces)
	}
	if res.TCHits == 0 {
		t.Error("no trace cache hits")
	}
	// Hot-loop slow path supplies only the cold traces.
	if res.SlowPathInstrs >= res.Instructions/2 {
		t.Errorf("slow path supplied %d of %d", res.SlowPathInstrs, res.Instructions)
	}
}

func TestDeterminism(t *testing.T) {
	im := loopImage(t, 200)
	cfg := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	a, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestFullTimingDeterminism(t *testing.T) {
	im := loopImage(t, 200)
	cfg := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	cfg.FullTiming = true
	cfg.PreprocEnabled = true
	a, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("full-timing runs differ")
	}
}

func TestResultAccessorsZero(t *testing.T) {
	var r Result
	if r.TCMissPerKI() != 0 || r.ICacheInstrsPerKI() != 0 ||
		r.ICacheMissesPerKI() != 0 || r.InstrsFromICMissesPerKI() != 0 || r.IPC() != 0 {
		t.Error("zero result accessors not zero")
	}
	r = Result{Instructions: 2000, TCMisses: 6, SlowPathInstrs: 100,
		TotalICMisses: 4, InstrsFromICMisses: 50, Cycles: 1000}
	if r.TCMissPerKI() != 3 {
		t.Errorf("TCMissPerKI = %f", r.TCMissPerKI())
	}
	if r.ICacheInstrsPerKI() != 50 {
		t.Errorf("ICacheInstrsPerKI = %f", r.ICacheInstrsPerKI())
	}
	if r.ICacheMissesPerKI() != 2 {
		t.Errorf("ICacheMissesPerKI = %f", r.ICacheMissesPerKI())
	}
	if r.InstrsFromICMissesPerKI() != 25 {
		t.Errorf("InstrsFromICMissesPerKI = %f", r.InstrsFromICMissesPerKI())
	}
	if r.IPC() != 2 {
		t.Errorf("IPC = %f", r.IPC())
	}
}

func TestSupplyInvariants(t *testing.T) {
	im := loopImage(t, 300)
	cfg := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	res, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.TCHits+res.PreconSupplied+res.TCMisses != res.Traces {
		t.Errorf("supply paths don't partition traces: %+v", res)
	}
	if res.InstrsFromICMisses > res.SlowPathInstrs {
		t.Error("more instructions from misses than from the i-cache")
	}
	if res.SlowICMisses > res.TotalICMisses {
		t.Error("slow-path misses exceed total misses")
	}
}

// TestPreconReducesMisses: on a program whose working set overflows a
// tiny trace cache, enabling preconstruction must reduce misses for
// equal total storage.
func TestPreconReducesMisses(t *testing.T) {
	// A program with several distinct procedures called in rotation, so
	// the 16-entry trace cache keeps missing.
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, 300)
	b.Label("loop")
	for f := 0; f < 6; f++ {
		b.Call(fnName(f))
	}
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	for f := 0; f < 6; f++ {
		b.Label(fnName(f))
		for i := 0; i < 20+f*7; i++ {
			b.ALUI(isa.OpAddI, 2, 2, int32(f+1))
		}
		b.Ret()
	}
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base, err := newSim(t, im, DefaultConfig().WithTraceCache(16)).Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := newSim(t, im, DefaultConfig().WithTraceCache(16).WithPrecon(16)).Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if pre.PreconSupplied == 0 {
		t.Fatalf("preconstruction supplied nothing; precon stats: %+v", pre.Precon)
	}
	if pre.TCMissPerKI() >= base.TCMissPerKI() {
		t.Errorf("precon %.2f misses/KI >= baseline %.2f", pre.TCMissPerKI(), base.TCMissPerKI())
	}
}

func fnName(i int) string {
	return string(rune('a'+i)) + "fn"
}

// TestPreprocSpeedsUpBackend: with full timing and a hot trace cache,
// enabling preprocessing must not slow execution down, and should help
// on dependence-heavy code.
func TestPreprocSpeedsUpBackend(t *testing.T) {
	// Dependence chain with fusible pairs inside a hot loop.
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, 400)
	b.Label("loop")
	b.ALUI(isa.OpShlI, 2, 1, 2)
	b.ALU(isa.OpAdd, 3, 2, 1)
	b.ALUI(isa.OpShlI, 4, 3, 1)
	b.ALU(isa.OpAdd, 5, 4, 3)
	b.ALUI(isa.OpAddI, 6, 0, 9)
	b.ALU(isa.OpXor, 7, 6, 5)
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FullTiming = true
	plain, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PreprocEnabled = true
	opt, err := newSim(t, im, cfg).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cycles > plain.Cycles {
		t.Errorf("preprocessing slowed down: %d > %d cycles", opt.Cycles, plain.Cycles)
	}
	if opt.Cycles == plain.Cycles {
		t.Logf("preprocessing had no effect on this kernel (plain=%d)", plain.Cycles)
	}
}

// TestFullTimingIPCBounds: IPC must be positive and below the machine's
// peak issue width.
func TestFullTimingIPCBounds(t *testing.T) {
	im := loopImage(t, 500)
	cfg := DefaultConfig()
	cfg.FullTiming = true
	res, err := newSim(t, im, cfg).Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	peak := float64(cfg.Backend.NumPEs * cfg.Backend.IssuePerPE)
	if res.IPC() <= 0 || res.IPC() > peak {
		t.Errorf("IPC = %.3f outside (0, %.0f]", res.IPC(), peak)
	}
	if res.Loads == 0 {
		t.Log("no loads in this kernel")
	}
}

// TestBiggerTraceCacheNeverWorse: for the same program, a larger trace
// cache must not increase the miss rate (sanity of LRU + selection).
func TestBiggerTraceCacheNeverWorse(t *testing.T) {
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, 200)
	b.Label("loop")
	for f := 0; f < 4; f++ {
		b.Call(fnName(f))
	}
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	for f := 0; f < 4; f++ {
		b.Label(fnName(f))
		for i := 0; i < 30; i++ {
			b.ALUI(isa.OpAddI, 2, 2, 1)
		}
		b.Ret()
	}
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	small, err := newSim(t, im, DefaultConfig().WithTraceCache(16)).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	big, err := newSim(t, im, DefaultConfig().WithTraceCache(256)).Run(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if big.TCMisses > small.TCMisses {
		t.Errorf("bigger cache missed more: %d > %d", big.TCMisses, small.TCMisses)
	}
}

func TestPreconEngineAccessor(t *testing.T) {
	im := loopImage(t, 5)
	if newSim(t, im, DefaultConfig()).PreconEngine() != nil {
		t.Error("engine present when disabled")
	}
	if newSim(t, im, DefaultConfig().WithPrecon(32)).PreconEngine() == nil {
		t.Error("engine absent when enabled")
	}
}

func TestWindowedStats(t *testing.T) {
	im := loopImage(t, 500)
	cfg := DefaultConfig()
	cfg.WindowInstrs = 1000
	res, err := newSim(t, im, cfg).Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) < 5 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	var sumI, sumM uint64
	for _, w := range res.Windows {
		if w.Instructions < cfg.WindowInstrs {
			t.Errorf("short window: %d", w.Instructions)
		}
		sumI += w.Instructions
		sumM += w.TCMisses
	}
	if sumI > res.Instructions {
		t.Errorf("window instructions %d exceed total %d", sumI, res.Instructions)
	}
	if sumM > res.TCMisses {
		t.Errorf("window misses %d exceed total %d", sumM, res.TCMisses)
	}
	// MissPerKI accessor.
	w := WindowStat{Instructions: 2000, TCMisses: 4}
	if w.MissPerKI() != 2 {
		t.Errorf("MissPerKI = %f", w.MissPerKI())
	}
	if (WindowStat{}).MissPerKI() != 0 {
		t.Error("zero window MissPerKI != 0")
	}
	// Disabled windows: no allocation.
	res2, _ := newSim(t, im, DefaultConfig()).Run(5_000)
	if len(res2.Windows) != 0 {
		t.Error("windows recorded when disabled")
	}
}

// TestGroupMemberAllocs bounds what building one more member of a group
// costs once the group's predictor tables exist: a tc1024/pb64 member
// must allocate under 256 KiB. Built with private tables, as New does,
// it allocates about 757 KiB, 664 KiB of which are predictor tables.
func TestGroupMemberAllocs(t *testing.T) {
	im := loopImage(t, 5)
	cfg := DefaultConfig().WithTraceCache(1024).WithPrecon(64)
	tables := tpred.NewTables(cfg.Pred)
	slow, err := frontend.NewSlowTables()
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	s, err := newMember(im, cfg, tables, slow, nil)
	runtime.ReadMemStats(&ms)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(s)
	got := ms.TotalAlloc - before
	t.Logf("tc1024/pb64 member over shared tables: %d KiB", got>>10)
	if got >= 256<<10 {
		t.Errorf("building a tc1024/pb64 member over shared tables allocated %d KiB, want under 256 KiB", got>>10)
	}
}
