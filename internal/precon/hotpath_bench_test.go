package precon

import (
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
	"tracepre/internal/trace"
)

// Microbenchmarks for the engine's per-instruction hot path. bytes/s
// means observed instructions per second (so MB/s reads as Minstr/s).
// Run with -benchmem: the steady state must report 0 allocs/op (also
// pinned by TestHotPathSteadyStateAllocs).

// benchStream records the committed stream of the call+loop program
// and cuts it into its demanded traces, so the Observe benchmarks
// replay realistic event ratios.
func benchStream(tb testing.TB) ([]*trace.Trace, *program.Image) {
	tb.Helper()
	bb := program.NewBuilder(0x1000)
	bb.Label("entry")
	bb.ALUI(isa.OpAddI, 2, 0, 40) // loop counter
	bb.Label("loop")
	bb.Call("fn")
	bb.ALUI(isa.OpAddI, 2, 2, -1)
	bb.Branch(isa.OpBne, 2, 0, "loop")
	bb.Halt()
	bb.Label("fn")
	bb.ALUI(isa.OpAddI, 3, 0, 10)
	bb.Label("inner")
	bb.ALUI(isa.OpAddI, 3, 3, -1)
	bb.Branch(isa.OpBne, 3, 0, "inner")
	bb.Ret()
	im, err := bb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var dyns []emulator.Dyn
	if _, err := emulator.New(im).Run(100000, func(d emulator.Dyn) {
		dyns = append(dyns, d)
	}); err != nil {
		tb.Fatal(err)
	}
	var traces []*trace.Trace
	seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
	for len(dyns) > 0 {
		used, tr, _ := seg.Feed(dyns)
		if tr == nil {
			break
		}
		dyns = dyns[used:]
		traces = append(traces, tr.Clone())
	}
	return traces, im
}

// instrs counts the instructions of traces.
func instrs(traces []*trace.Trace) int64 {
	n := 0
	for _, tr := range traces {
		n += tr.Len()
	}
	return int64(n)
}

func benchEngine(tb testing.TB, im *program.Image, cfg Config) *Engine {
	tb.Helper()
	r, err := buildRig(tb, im, cfg, 64, 256)
	if err != nil {
		tb.Fatal(err)
	}
	return r.eng
}

// BenchmarkObserve measures the per-instruction monitoring cost alone
// (no Step work), one instruction per Observe call: the retire probe
// plus pushes at the marked instructions.
func BenchmarkObserve(b *testing.B) {
	traces, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	var single []*trace.Trace
	for _, tr := range traces {
		for k := range tr.PCs {
			single = append(single, &trace.Trace{PCs: tr.PCs[k : k+1], Insts: tr.Insts[k : k+1], Starts: tr.Starts >> k & 1})
		}
	}
	b.SetBytes(int64(len(single)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range single {
			eng.Observe(tr)
		}
	}
}

// BenchmarkObserveBatch measures the same stream a demanded trace per
// Observe call, as the pipeline hands it over.
func BenchmarkObserveBatch(b *testing.B) {
	traces, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	b.SetBytes(instrs(traces))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			eng.Observe(tr)
		}
	}
}

// BenchmarkObserveStep is the full engine loop: grant idle work units
// and then observe each demanded trace, the shape of the pipeline's
// retirement handoff.
func BenchmarkObserveStep(b *testing.B) {
	traces, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	b.SetBytes(instrs(traces))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			eng.Step(8)
			eng.Observe(tr)
		}
	}
}

// BenchmarkRegionChurn measures region activation/completion turnover:
// every iteration activates a region and drives it to completion, in a
// slot whose storage New allocated once.
func BenchmarkRegionChurn(b *testing.B) {
	_, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	// Cycle more start addresses than the completed-region ring holds,
	// so every iteration activates a real region.
	starts := make([]*trace.Trace, 8)
	for i := range starts {
		addr := im.Base + uint32(4+i)*isa.WordSize
		starts[i] = &trace.Trace{PCs: []uint32{addr - 4}, Insts: []isa.Inst{{Op: isa.OpJal, Target: addr}}, Starts: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(starts[i%len(starts)])
		for !eng.Idle() {
			eng.Step(64)
		}
	}
	b.ReportMetric(float64(eng.Stats().RegionsCompleted)/float64(b.N), "regions/op")
}

// TestHotPathSteadyStateAllocs pins the engine's allocation claim:
// once the engine is warm (all constructed traces duplicates of
// buffered ones), a full observe-and-step round allocates nothing.
func TestHotPathSteadyStateAllocs(t *testing.T) {
	traces, im := benchStream(t)
	eng := benchEngine(t, im, DefaultConfig())
	round := func() {
		for _, tr := range traces {
			eng.Step(8)
			eng.Observe(tr)
		}
		for !eng.Idle() {
			eng.Step(64)
		}
	}
	for i := 0; i < 3; i++ {
		round() // warm: fill the buffers
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("steady-state round allocates %.1f objects; hot path must be allocation-free", allocs)
	}
}
