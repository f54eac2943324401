package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
	"tracepre/internal/workload"
)

// randomProgram builds a small random-but-valid program for property
// tests: straight-line blocks, forward/backward branches, calls and
// returns, always terminating via an instruction budget in the caller.
func randomProgram(seed int64) *program.Image {
	r := rand.New(rand.NewSource(seed))
	b := program.NewBuilder(0x1000)
	// Driver: loop forever over calls to a pair of functions.
	b.Label("main")
	b.ALUI(isa.OpAddI, 1, 0, int32(3+r.Intn(6)))
	b.Label("outer")
	b.Call("f0")
	b.Call("f1")
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "outer")
	b.Jmp("main")
	for f := 0; f < 2; f++ {
		b.Label("f" + string(rune('0'+f)))
		n := 3 + r.Intn(20)
		for i := 0; i < n; i++ {
			switch r.Intn(6) {
			case 0:
				b.ALUI(isa.OpAddI, uint8(2+r.Intn(6)), uint8(2+r.Intn(6)), int32(r.Intn(9)-4))
			case 1:
				b.ALU(isa.OpXor, uint8(2+r.Intn(6)), uint8(2+r.Intn(6)), uint8(2+r.Intn(6)))
			default:
				b.ALUI(isa.OpAddI, uint8(2+r.Intn(6)), 0, int32(r.Intn(100)))
			}
		}
		// A small counted inner loop.
		reg := uint8(10 + f)
		b.ALUI(isa.OpAddI, reg, 0, int32(2+r.Intn(4)))
		b.Label("fl" + string(rune('0'+f)))
		b.ALUI(isa.OpAddI, 9, 9, 1)
		b.ALUI(isa.OpAddI, reg, reg, -1)
		b.Branch(isa.OpBne, reg, 0, "fl"+string(rune('0'+f)))
		b.Ret()
	}
	im, err := b.Build()
	if err != nil {
		panic(err)
	}
	return im
}

// TestQuickSuffixClosure is the alignment property preconstruction
// relies on: if you re-segment the committed stream starting exactly at
// an existing trace boundary, every later boundary is identical. A
// preconstructor that starts at a boundary therefore produces traces
// the processor will actually demand.
func TestQuickSuffixClosure(t *testing.T) {
	f := func(seed int64) bool {
		im := randomProgram(seed)
		var dyns []emulator.Dyn
		e := emulator.New(im)
		e.Run(2000, func(d emulator.Dyn) {
			dyns = append(dyns, d)
		})
		full := segmentDyns(dyns)
		if len(full) < 4 {
			return true
		}
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		// Pick a boundary: the instruction index where trace k starts.
		k := 1 + r.Intn(len(full)-2)
		idx := 0
		for i := 0; i < k; i++ {
			idx += full[i].Len()
		}
		suffix := segmentDyns(dyns[idx:])
		for i := 0; i < len(suffix) && k+i < len(full); i++ {
			if suffix[i].ID() != full[k+i].ID() {
				t.Logf("seed %d: boundary %d, suffix trace %d: %v != %v",
					seed, k, i, suffix[i].ID(), full[k+i].ID())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// segmentDyns cuts a committed stream into its demanded trace sequence
// with a ChunkSegmenter fed the whole stream as one chunk, returning an
// independent copy of each trace. A trailing partial trace is dropped,
// as the simulator drops it.
func segmentDyns(dyns []emulator.Dyn) []*Trace {
	s := NewChunkSegmenter(DefaultSelectConfig())
	var out []*Trace
	for len(dyns) > 0 {
		used, tr, _ := s.Feed(dyns)
		if tr == nil {
			break
		}
		dyns = dyns[used:]
		out = append(out, tr.Clone())
	}
	return out
}

// TestQuickSegmentationOfWorkloads: on the real synthetic benchmarks,
// every trace obeys the selection invariants: length bounds, branch
// counts consistent with the mask, terminal-instruction classes, and
// contiguity of Succ.
func TestQuickSegmentationInvariants(t *testing.T) {
	p, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var dyns []emulator.Dyn
	if _, err := emulator.New(im).Run(100_000, func(d emulator.Dyn) {
		dyns = append(dyns, d)
	}); err != nil {
		t.Fatal(err)
	}
	var prev *Trace
	checked := 0
	for _, tr := range segmentDyns(dyns) {
		checked++
		if tr.Len() < 1 || tr.Len() > 16 {
			t.Fatalf("trace length %d", tr.Len())
		}
		// Count conditional branches and compare with NumBr.
		nbr := 0
		for _, in := range tr.Insts {
			if in.IsBranch() {
				nbr++
			}
		}
		if nbr != int(tr.NumBr) {
			t.Fatalf("NumBr %d but %d branches", tr.NumBr, nbr)
		}
		if tr.NumBr < 16 && tr.BrMask>>tr.NumBr != 0 {
			t.Fatalf("mask %b has bits past NumBr %d", tr.BrMask, tr.NumBr)
		}
		// Only the last instruction may be a return/indirect/halt.
		for i, in := range tr.Insts[:len(tr.Insts)-1] {
			switch in.Classify() {
			case isa.ClassReturn, isa.ClassJumpInd, isa.ClassHalt:
				t.Fatalf("terminal class mid-trace at %d", i)
			}
		}
		if prev != nil && prev.Succ != tr.PCs[0] {
			t.Fatalf("discontinuity: prev succ 0x%x, next start 0x%x", prev.Succ, tr.PCs[0])
		}
		prev = tr
	}
	if checked == 0 {
		t.Fatal("no traces checked")
	}
}
