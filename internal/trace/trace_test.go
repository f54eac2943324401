package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
)

func cfg() SelectConfig { return DefaultSelectConfig() }

// appendInst appends one instruction through AppendClassified.
func appendInst(b *Builder, pc uint32, in isa.Inst, taken bool) bool {
	return b.AppendClassified(pc, &in, in.Classify(), taken)
}

// finish seals the trace and returns a copy that outlives the builder,
// or nil for an empty trace.
func finish(b *Builder, succ uint32) *Trace {
	if tr := b.Seal(succ); tr != nil {
		return tr.Clone()
	}
	return nil
}

func TestSelectConfigValidate(t *testing.T) {
	if err := DefaultSelectConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []SelectConfig{
		{MaxLen: 0, AlignMod: 4},
		{MaxLen: 17, AlignMod: 4},
		{MaxLen: 16, AlignMod: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil", c)
		}
	}
}

func TestIDHashAndString(t *testing.T) {
	a := ID{Start: 0x1000, NumBr: 2, Mask: 0b01}
	b := ID{Start: 0x1000, NumBr: 2, Mask: 0b10}
	if a.Hash() == b.Hash() {
		t.Error("distinct IDs share a hash (collision on trivial case)")
	}
	if a.Zero() {
		t.Error("nonzero ID reported zero")
	}
	if !(ID{}).Zero() {
		t.Error("zero ID not reported zero")
	}
	if a.String() == "" || a.String() == b.String() {
		t.Error("String not distinguishing")
	}
}

func TestBuilderMaxLen(t *testing.T) {
	b := NewBuilder(cfg())
	in := isa.Inst{Op: isa.OpAdd, Rd: 1, Ra: 2, Rb: 3}
	for i := 0; i < 15; i++ {
		if appendInst(b, uint32(i*4), in, false) {
			t.Fatalf("trace ended early at %d", i+1)
		}
	}
	if !appendInst(b, 60, in, false) {
		t.Error("trace did not end at MaxLen")
	}
	tr := finish(b, 64)
	if tr.Len() != 16 || tr.Succ != 64 {
		t.Errorf("trace = %v", tr)
	}
	if tr.ID() != (ID{Start: 0, NumBr: 0, Mask: 0}) {
		t.Errorf("ID = %v", tr.ID())
	}
}

func TestBuilderEndsAtReturn(t *testing.T) {
	b := NewBuilder(cfg())
	appendInst(b, 0, isa.Inst{Op: isa.OpAdd}, false)
	if !appendInst(b, 4, isa.Inst{Op: isa.OpJr, Ra: isa.RegLink}, false) {
		t.Error("trace did not end at return")
	}
	tr := finish(b, 0x2000)
	if !tr.EndsInReturn || tr.EndsInIndirect {
		t.Errorf("flags = %+v", tr)
	}
}

func TestBuilderEndsAtIndirect(t *testing.T) {
	b := NewBuilder(cfg())
	if !appendInst(b, 0, isa.Inst{Op: isa.OpJr, Ra: 5}, false) {
		t.Error("trace did not end at indirect jump")
	}
	if tr := finish(b, 0); !tr.EndsInIndirect {
		t.Error("EndsInIndirect not set")
	}
	b2 := NewBuilder(cfg())
	if !appendInst(b2, 0, isa.Inst{Op: isa.OpJalr, Ra: 5}, false) {
		t.Error("trace did not end at indirect call")
	}
}

func TestBuilderEndsAtHalt(t *testing.T) {
	b := NewBuilder(cfg())
	if !appendInst(b, 0, isa.Inst{Op: isa.OpHalt}, false) {
		t.Error("trace did not end at halt")
	}
	if tr := finish(b, 0); !tr.EndsInHalt {
		t.Error("EndsInHalt not set")
	}
}

func TestBuilderBranchMask(t *testing.T) {
	b := NewBuilder(cfg())
	br := isa.Inst{Op: isa.OpBne, Ra: 1, Rb: 2, Imm: 32} // forward branch
	appendInst(b, 0, br, true)
	appendInst(b, 32, isa.Inst{Op: isa.OpAdd}, false)
	appendInst(b, 36, br, false)
	appendInst(b, 40, br, true)
	tr := finish(b, 0)
	if tr.NumBr != 3 {
		t.Fatalf("NumBr = %d", tr.NumBr)
	}
	if tr.BrMask != 0b101 {
		t.Errorf("BrMask = %b, want 101", tr.BrMask)
	}
	id := tr.ID()
	if id.NumBr != 3 || id.Mask != 0b101 || id.Start != 0 {
		t.Errorf("ID = %+v", id)
	}
}

// TestAlignmentRule: a trace containing a backward branch ends when the
// instruction count past that branch reaches a multiple of AlignMod.
func TestAlignmentRule(t *testing.T) {
	b := NewBuilder(cfg())
	add := isa.Inst{Op: isa.OpAdd}
	back := isa.Inst{Op: isa.OpBne, Ra: 1, Rb: 0, Imm: -16}
	appendInst(b, 0, add, false)
	appendInst(b, 4, add, false)
	if appendInst(b, 8, back, false) { // loop exit: branch not taken
		t.Fatal("ended at backward branch itself")
	}
	// Now 4 more instructions must complete the trace.
	for i := 0; i < 3; i++ {
		if appendInst(b, uint32(12+i*4), add, false) {
			t.Fatalf("ended early, %d past branch", i+1)
		}
	}
	if !appendInst(b, 24, add, false) {
		t.Error("did not end 4 instructions past backward branch")
	}
	if got := finish(b, 28).Len(); got != 7 {
		t.Errorf("len = %d, want 7", got)
	}
}

// TestAlignmentCounterResets: a second backward branch restarts the count.
func TestAlignmentCounterResets(t *testing.T) {
	b := NewBuilder(cfg())
	add := isa.Inst{Op: isa.OpAdd}
	back := isa.Inst{Op: isa.OpBne, Ra: 1, Rb: 0, Imm: -8}
	appendInst(b, 0, back, true)  // taken back edge
	appendInst(b, 4, add, false)  // 1 past
	appendInst(b, 8, add, false)  // 2 past
	appendInst(b, 12, back, true) // new back edge: count resets
	for i := 0; i < 3; i++ {
		if appendInst(b, uint32(16+i*4), add, false) {
			t.Fatalf("ended %d past second branch", i+1)
		}
	}
	if !appendInst(b, 28, add, false) {
		t.Error("did not end 4 past the second backward branch")
	}
}

func TestForwardBranchNoAlign(t *testing.T) {
	// Forward branches must not arm the alignment counter.
	b := NewBuilder(cfg())
	fwd := isa.Inst{Op: isa.OpBeq, Ra: 1, Rb: 2, Imm: 64}
	add := isa.Inst{Op: isa.OpAdd}
	appendInst(b, 0, fwd, false)
	for i := 1; i < 15; i++ {
		if appendInst(b, uint32(i*4), add, false) {
			t.Fatalf("ended early at %d", i+1)
		}
	}
}

func TestAppendPastEndPanics(t *testing.T) {
	b := NewBuilder(cfg())
	for i := 0; i < 16; i++ {
		appendInst(b, uint32(i*4), isa.Inst{Op: isa.OpAdd}, false)
	}
	defer func() {
		if recover() == nil {
			t.Error("Append past MaxLen did not panic")
		}
	}()
	appendInst(b, 64, isa.Inst{Op: isa.OpAdd}, false)
}

func TestFinishEmpty(t *testing.T) {
	b := NewBuilder(cfg())
	if finish(b, 0) != nil {
		t.Error("sealing an empty builder returned a trace")
	}
}

func TestResetReuse(t *testing.T) {
	b := NewBuilder(cfg())
	appendInst(b, 0, isa.Inst{Op: isa.OpHalt}, false)
	t1 := finish(b, 0)
	b.Reset()
	if b.Len() != 0 {
		t.Error("Reset did not clear")
	}
	appendInst(b, 100, isa.Inst{Op: isa.OpAdd}, false)
	appendInst(b, 104, isa.Inst{Op: isa.OpHalt}, false)
	t2 := finish(b, 0)
	if t1.Len() != 1 || t2.Len() != 2 || t2.PCs[0] != 100 {
		t.Errorf("t1=%v t2=%v", t1, t2)
	}
	// The first trace must be unaffected by builder reuse.
	if t1.PCs[0] != 0 {
		t.Error("the finished trace shares the builder's slices")
	}
}

func TestTraceStringAndPending(t *testing.T) {
	b := NewBuilder(cfg())
	appendInst(b, 0x100, isa.Inst{Op: isa.OpAdd}, false)
	tr := finish(b, 0x104)
	if s := tr.String(); s == "" {
		t.Error("empty trace String")
	}
	if (&Trace{}).ID() != (ID{}) {
		t.Error("empty trace ID not zero")
	}
	seg := NewChunkSegmenter(cfg())
	if seg.Pending() != 0 {
		t.Error("fresh segmenter pending")
	}
	seg.Feed([]emulator.Dyn{{PC: 0x100, Inst: isa.Inst{Op: isa.OpAdd}, NextPC: 0x104}})
	if seg.Pending() != 1 {
		t.Errorf("pending = %d", seg.Pending())
	}
}

func TestContainsCall(t *testing.T) {
	b := NewBuilder(cfg())
	appendInst(b, 0, isa.Inst{Op: isa.OpAdd}, false)
	appendInst(b, 4, isa.Inst{Op: isa.OpJal, Target: 0x100}, false)
	appendInst(b, 0x100, isa.Inst{Op: isa.OpHalt}, false)
	if !finish(b, 0).ContainsCall() {
		t.Error("ContainsCall = false")
	}
	b2 := NewBuilder(cfg())
	appendInst(b2, 0, isa.Inst{Op: isa.OpHalt}, false)
	if finish(b2, 0).ContainsCall() {
		t.Error("ContainsCall = true for plain trace")
	}
}

// TestStartMarks: Starts marks exactly the calls, direct and indirect,
// and the taken backward branches.
func TestStartMarks(t *testing.T) {
	b := NewBuilder(cfg())
	back := isa.Inst{Op: isa.OpBne, Ra: 1, Imm: -8}
	fwd := isa.Inst{Op: isa.OpBeq, Ra: 1, Imm: 8}
	appendInst(b, 0, isa.Inst{Op: isa.OpAdd}, false)
	appendInst(b, 4, isa.Inst{Op: isa.OpJal, Target: 0x100}, false) // 1
	appendInst(b, 0x100, back, true)                                // 2
	appendInst(b, 0xf8, back, false)
	appendInst(b, 0xfc, fwd, true)
	appendInst(b, 0x104, isa.Inst{Op: isa.OpJalr, Ra: 5}, false) // 5
	if got, want := finish(b, 0).Starts, uint16(1<<1|1<<2|1<<5); got != want {
		t.Errorf("Starts = %b, want %b", got, want)
	}
}

// buildLoopProgram returns an image with a call and a counted loop, used
// by the segmenter tests.
func buildLoopProgram(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, 6) // r1 = 6
	b.Label("loop")
	b.ALUI(isa.OpAddI, 2, 2, 1)
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Call("fn")
	b.Halt()
	b.Label("fn")
	b.ALUI(isa.OpAddI, 3, 0, 1)
	b.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestSegmenterCoversStream(t *testing.T) {
	im := buildLoopProgram(t)
	traces := segmentImage(im, 1000)
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	// Total instructions across traces equals committed count.
	total := 0
	for _, tr := range traces {
		total += tr.Len()
		if tr.Len() > 16 {
			t.Errorf("trace longer than 16: %v", tr)
		}
	}
	e := emulator.New(im)
	n, _ := e.Run(1000, nil)
	if total != int(n) {
		t.Errorf("segmented %d instructions, committed %d", total, n)
	}
	// Contiguity: each trace's Succ equals the next trace's start.
	for i := 0; i+1 < len(traces); i++ {
		if traces[i].Succ != traces[i+1].PCs[0] {
			t.Errorf("trace %d succ=0x%x, next starts 0x%x", i, traces[i].Succ, traces[i+1].PCs[0])
		}
	}
}

func TestSegmenterReturnBoundary(t *testing.T) {
	im := buildLoopProgram(t)
	traces := segmentImage(im, 1000)
	found := false
	for _, tr := range traces {
		if tr.EndsInReturn {
			found = true
			last := tr.Insts[len(tr.Insts)-1]
			if last.Classify() != isa.ClassReturn {
				t.Errorf("EndsInReturn trace does not end with return: %v", last)
			}
		}
	}
	if !found {
		t.Error("no trace ends at the return")
	}
}

// TestQuickSameStartSameID: walking the same committed stream twice
// produces identical trace sequences (determinism of selection).
func TestQuickSegmenterDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		budget := uint64(100 + r.Intn(400))
		im := mustImage()
		a := idsOf(segmentImage(im, budget))
		b := idsOf(segmentImage(im, budget))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func mustImage() *program.Image {
	b := program.NewBuilder(0x1000)
	b.ALUI(isa.OpAddI, 1, 0, 50)
	b.Label("loop")
	b.ALUI(isa.OpAddI, 2, 2, 3)
	b.ALUI(isa.OpAndI, 3, 2, 7)
	b.Branch(isa.OpBeq, 3, 0, "skip")
	b.ALUI(isa.OpAddI, 4, 4, 1)
	b.Label("skip")
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	im, err := b.Build()
	if err != nil {
		panic(err)
	}
	return im
}

func segmentImage(im *program.Image, budget uint64) []*Trace {
	var dyns []emulator.Dyn
	emulator.New(im).Run(budget, func(d emulator.Dyn) {
		dyns = append(dyns, d)
	})
	return segmentDyns(dyns)
}

func idsOf(ts []*Trace) []ID {
	ids := make([]ID, len(ts))
	for i, tr := range ts {
		ids[i] = tr.ID()
	}
	return ids
}

// TestQuickIDHashSpread: hashing many distinct IDs produces few
// collisions (sanity check for set indexing).
func TestQuickIDHashSpread(t *testing.T) {
	seen := make(map[uint32][]ID)
	collisions := 0
	n := 0
	for start := uint32(0); start < 2048; start += 4 {
		for mask := uint16(0); mask < 4; mask++ {
			id := ID{Start: 0x10000 + start, NumBr: 2, Mask: mask}
			h := id.Hash()
			if len(seen[h]) > 0 {
				collisions++
			}
			seen[h] = append(seen[h], id)
			n++
		}
	}
	if collisions > n/100 {
		t.Errorf("%d/%d hash collisions", collisions, n)
	}
}
