package precon

import (
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// Microbenchmarks for the engine's per-instruction hot path. bytes/s
// means observed instructions per second (so MB/s reads as Minstr/s).
// Run with -benchmem: the steady state must report 0 allocs/op (also
// pinned by TestHotPathSteadyStateAllocs).

// benchStream records a committed Dyn stream from the call+loop program
// so the Observe benchmarks replay realistic event ratios.
func benchStream(tb testing.TB) ([]emulator.Dyn, *program.Image) {
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
	if _, err := emulator.New(im).Run(100000, func(d emulator.Dyn) bool {
		dyns = append(dyns, d)
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	return dyns, im
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
// (no Step work): the retire probe plus start-point event detection.
func BenchmarkObserve(b *testing.B) {
	dyns, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	b.SetBytes(int64(len(dyns)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dyns {
			eng.Observe(d)
		}
	}
}

// BenchmarkObserveBatch measures the same stream through the batched
// entry point the pipeline uses.
func BenchmarkObserveBatch(b *testing.B) {
	dyns, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	b.SetBytes(int64(len(dyns)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ObserveBatch(dyns)
	}
}

// BenchmarkObserveStep is the full engine loop: observe the stream in
// trace-sized batches and grant idle work units after each, the shape
// of the pipeline's dispatch handoff.
func BenchmarkObserveStep(b *testing.B) {
	dyns, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	b.SetBytes(int64(len(dyns)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(dyns); off += 16 {
			end := off + 16
			if end > len(dyns) {
				end = len(dyns)
			}
			eng.Step(8)
			eng.ObserveBatch(dyns[off:end])
		}
	}
}

// BenchmarkRegionChurn measures region activation/completion turnover:
// every iteration activates a region, drives it to completion, and the
// pool must hand the same storage back.
func BenchmarkRegionChurn(b *testing.B) {
	_, im := benchStream(b)
	eng := benchEngine(b, im, DefaultConfig())
	// Cycle more start addresses than the completed-region ring holds,
	// so every iteration activates (and pools) a real region.
	starts := make([]emulator.Dyn, 8)
	for i := range starts {
		addr := im.Base + uint32(4+i)*isa.WordSize
		starts[i] = emulator.Dyn{PC: addr - 4, Inst: isa.Inst{Op: isa.OpJal, Target: addr}}
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

// Set microbenchmarks: the membership structures the hot path runs on.
func BenchmarkU32SetAddHas(b *testing.B) {
	var s u32set
	s.init(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(i) % 61
		s.has(k * 4)
		s.add(k * 4)
		if s.len() >= 61 {
			s.reset()
		}
	}
}

func BenchmarkLineSetAddHas(b *testing.B) {
	var s lineSet
	s.initLines(0x1000, 0x41000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := 0x1000 + uint32(i%1024)*64
		if !s.has(line) {
			s.add(line)
		}
		if s.len() >= 1024 {
			s.reset()
		}
	}
}

func BenchmarkAddrIndex(b *testing.B) {
	var x addrIndex
	const window = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint32(i) * 4
		x.inc(a)
		x.contains(a &^ 1023)
		if i >= window {
			x.dec(uint32(i-window) * 4)
		}
	}
}

// TestHotPathSteadyStateAllocs pins the tentpole's allocation claim:
// once the engine is warm (stack storage grown, regions pooled, all
// constructed traces duplicates of buffered ones), a full
// observe-and-step round allocates nothing.
func TestHotPathSteadyStateAllocs(t *testing.T) {
	dyns, im := benchStream(t)
	eng := benchEngine(t, im, DefaultConfig())
	round := func() {
		for off := 0; off < len(dyns); off += 16 {
			end := off + 16
			if end > len(dyns) {
				end = len(dyns)
			}
			eng.Step(8)
			eng.ObserveBatch(dyns[off:end])
		}
		for !eng.Idle() {
			eng.Step(64)
		}
	}
	for i := 0; i < 3; i++ {
		round() // warm: grow stack storage, pool regions, fill buffers
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("steady-state round allocates %.1f objects; hot path must be allocation-free", allocs)
	}
}
