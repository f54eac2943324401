package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// memLoopImage builds a loop with loads, stores, branches and calls so
// every dynamic record kind (branch bits, memory deltas, indirect
// targets) appears in a recorded stream.
func memLoopImage(t *testing.T, iters int32) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, iters)
	b.ALUI(isa.OpAddI, 3, 0, 0x100) // base pointer
	b.Label("loop")
	b.Call("work")
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	b.Label("work")
	b.Load(4, 3, 0)
	b.ALUI(isa.OpAddI, 4, 4, 1)
	b.Store(4, 3, 0)
	b.ALUI(isa.OpAddI, 3, 3, 4)
	b.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestRunTwiceErrors(t *testing.T) {
	im := loopImage(t, 50)
	sim := newSim(t, im, DefaultConfig().WithTraceCache(64))
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); !errors.Is(err, ErrRunTwice) {
		t.Fatalf("second Run: got %v, want ErrRunTwice", err)
	}
	// RunStream is guarded by the same contract.
	st, err := emulator.Record(im, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunStream(st, 1000); !errors.Is(err, ErrRunTwice) {
		t.Fatalf("RunStream after Run: got %v, want ErrRunTwice", err)
	}
}

// TestRunMatchesRunStream pins Run, which records exactly the budget,
// against RunStream over a recording twice as long with the same
// budget: the two must report identical Results, with and without full
// timing, so RunStream's budget cut matches a recording that ends there.
func TestRunMatchesRunStream(t *testing.T) {
	im := memLoopImage(t, 2_000) // ~8 instrs/iteration, outruns the recording
	const budget = 5_000
	st, err := emulator.Record(im, 2*budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, timing := range []bool{false, true} {
		cfg := DefaultConfig().WithTraceCache(64).WithPrecon(64)
		cfg.FullTiming = timing
		direct, err := newSim(t, im, cfg).Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := newSim(t, im, cfg).RunStream(st, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, streamed) {
			t.Errorf("timing=%v: RunStream over a longer recording differs:\nRun       %+v\nRunStream %+v",
				timing, direct, streamed)
		}
	}
}

// TestRunStreamCorruptStream runs a recording whose records disagree
// with the image: the recording ends at an ALU op that the test then
// rewrites, in the image, into a conditional branch, so replay finds no
// outcome bit for the branch. RunStream must return the decode error,
// wrapped, rather than panic or report a short run as a success.
func TestRunStreamCorruptStream(t *testing.T) {
	im := memLoopImage(t, 50)
	full, err := emulator.Record(im, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last instruction before the first conditional branch.
	var n uint64
	var last emulator.Dyn
	rp := full.Replay()
	for d, ok := rp.Next(); ok && !d.Inst.IsBranch(); d, ok = rp.Next() {
		n, last = n+1, d
	}
	if last.Inst.Op != isa.OpAddI {
		t.Fatalf("the loop's branch follows %v, want an addi", last.Inst)
	}
	st, err := emulator.Record(im, n)
	if err != nil {
		t.Fatal(err)
	}
	im.Insts()[(last.PC-im.Base)/isa.WordSize] = isa.Inst{Op: isa.OpBne, Ra: last.Inst.Rd, Imm: 8}
	_, err = newSim(t, im, DefaultConfig()).RunStream(st, 10_000)
	if !errors.Is(err, emulator.ErrCorruptStream) {
		t.Fatalf("RunStream over a corrupt recording = %v, want an ErrCorruptStream", err)
	}
}

// BenchmarkRunAllocs measures the per-instruction allocation rate of a
// full-timing run over a recorded stream: the backend scratch and the
// segmenter scratch must be reused across traces, so
// allocations stay bounded by trace-cache fills rather than trace count.
func BenchmarkRunAllocs(b *testing.B) {
	bld := program.NewBuilder(0x1000)
	bld.LoadConst(1, 1<<30)
	bld.ALUI(isa.OpAddI, 3, 0, 0x100)
	bld.Label("loop")
	bld.Load(4, 3, 0)
	bld.ALUI(isa.OpAddI, 4, 4, 1)
	bld.Store(4, 3, 0)
	bld.ALUI(isa.OpAddI, 1, 1, -1)
	bld.Branch(isa.OpBne, 1, 0, "loop")
	bld.Halt()
	im, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	const budget = 100_000
	st, err := emulator.Record(im, budget)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig().WithTraceCache(256)
	cfg.FullTiming = true
	b.ReportAllocs()
	b.SetBytes(budget)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newSim(b, im, cfg).RunStream(st, budget); err != nil {
			b.Fatal(err)
		}
	}
}
