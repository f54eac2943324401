package program

import (
	"strings"
	"testing"

	"tracepre/internal/isa"
)

// buildLoop assembles a small program: a counted loop around a call.
//
//	entry:  addi r1, r0, 3
//	loop:   jal  sub
//	        addi r1, r1, -1
//	        bne  r1, r0, loop
//	        halt
//	sub:    addi r2, r2, 1
//	        ret
func buildLoop(t *testing.T) *Image {
	t.Helper()
	b := NewBuilder(0x1000)
	b.Label("entry")
	b.ALUI(isa.OpAddI, 1, 0, 3)
	b.Label("loop")
	b.Call("sub")
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "loop")
	b.Halt()
	b.Label("sub")
	b.ALUI(isa.OpAddI, 2, 2, 1)
	b.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return im
}

func TestBuilderBasics(t *testing.T) {
	im := buildLoop(t)
	if im.Base != 0x1000 {
		t.Errorf("Base = 0x%x", im.Base)
	}
	if im.NumInstrs() != 7 {
		t.Fatalf("NumInstrs = %d, want 7", im.NumInstrs())
	}
	if im.Entry != 0x1000 {
		t.Errorf("Entry = 0x%x, want 0x1000", im.Entry)
	}
	if a, ok := im.Lookup("sub"); !ok || a != 0x1000+5*4 {
		t.Errorf("Lookup(sub) = 0x%x,%v", a, ok)
	}
	// The call must have been fixed up to the sub label.
	in, ok := im.At(0x1004)
	if !ok || in.Op != isa.OpJal {
		t.Fatalf("At(0x1004) = %v,%v", in, ok)
	}
	if in.Target != 0x1000+5*4 {
		t.Errorf("call target = 0x%x", in.Target)
	}
	// The branch must point backwards at the loop label.
	br, _ := im.At(0x100c)
	if br.Op != isa.OpBne || !br.IsBackwardBranch() {
		t.Errorf("branch = %v", br)
	}
	if br.BranchTarget(0x100c) != 0x1004 {
		t.Errorf("branch target = 0x%x", br.BranchTarget(0x100c))
	}
}

func TestImageBounds(t *testing.T) {
	im := buildLoop(t)
	if im.Contains(im.Base - 4) {
		t.Error("Contains below base")
	}
	if im.Contains(im.End()) {
		t.Error("Contains end")
	}
	if im.Contains(im.Base + 2) {
		t.Error("Contains misaligned")
	}
	if _, ok := im.At(im.End()); ok {
		t.Error("At past end succeeded")
	}
}

func TestBuilderEntry(t *testing.T) {
	b := NewBuilder(0)
	b.Nop()
	b.Label("start")
	b.Halt()
	b.SetEntry("start")
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if im.Entry != 4 {
		t.Errorf("Entry = %d, want 4", im.Entry)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		b := NewBuilder(0)
		b.Jmp("nowhere")
		if _, err := b.Build(); err == nil {
			t.Error("expected error for undefined label")
		}
	})
	t.Run("undefined entry", func(t *testing.T) {
		b := NewBuilder(0)
		b.Halt()
		b.SetEntry("nowhere")
		if _, err := b.Build(); err == nil {
			t.Error("expected error for undefined entry")
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		b := NewBuilder(0)
		b.Label("x")
		b.Nop()
		b.Label("x")
		b.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("expected error for duplicate label")
		}
	})
	t.Run("branch out of range", func(t *testing.T) {
		b := NewBuilder(0)
		b.Label("far")
		for i := 0; i < 10000; i++ {
			b.Nop()
		}
		b.Branch(isa.OpBeq, 0, 0, "far")
		if _, err := b.Build(); err == nil {
			t.Error("expected error for branch out of range")
		}
	})
}

func TestLoadAddrAndConst(t *testing.T) {
	b := NewBuilder(0x2000)
	b.LoadAddr(5, "tbl")
	b.LoadConst(6, 0xDEADBEEF)
	b.Halt()
	b.Label("tbl")
	b.Nop()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lui, _ := im.At(0x2000)
	ori, _ := im.At(0x2004)
	addr := uint32(lui.Imm)<<16 | uint32(ori.Imm)
	want, _ := im.Lookup("tbl")
	if addr != want {
		t.Errorf("LoadAddr materialized 0x%x, want 0x%x", addr, want)
	}
	lui2, _ := im.At(0x2008)
	ori2, _ := im.At(0x200c)
	if got := uint32(lui2.Imm)<<16 | uint32(ori2.Imm); got != 0xDEADBEEF {
		t.Errorf("LoadConst materialized 0x%x", got)
	}
}

func TestSetData(t *testing.T) {
	b := NewBuilder(0)
	b.Halt()
	b.SetData(0x10000, []uint32{1, 2, 3})
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if im.DataBase != 0x10000 || len(im.Data) != 3 || im.Data[2] != 3 {
		t.Errorf("data = base 0x%x %v", im.DataBase, im.Data)
	}
}

func TestDisassemble(t *testing.T) {
	im := buildLoop(t)
	text := im.Disassemble(im.Base, 3)
	if !strings.Contains(text, "addi r1, r0, 3") || !strings.Contains(text, "jal") {
		t.Errorf("Disassemble output unexpected:\n%s", text)
	}
	if im.Disassemble(im.End(), 5) != "" {
		t.Error("Disassemble past end returned text")
	}
}

// TestLocalLabels: a local label resolves branches, jumps, address
// loads and data words like an exported one, but the image does not
// export it, and both kinds share one namespace.
func TestLocalLabels(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("entry")
	b.ALUI(isa.OpAddI, 1, 0, 3)
	b.LocalLabel("top")
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "top")
	b.LoadAddr(2, "top")
	b.Jmp("top")
	b.SetDataBase(0x10000)
	b.AddDataLabel("top")
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Symbols) != 1 || im.Symbols["entry"] != 0x1000 {
		t.Errorf("Symbols = %v, want only entry", im.Symbols)
	}
	if _, ok := im.Lookup("top"); ok {
		t.Error("local label exported")
	}
	const top = 0x1004
	if br, _ := im.At(0x1008); br.BranchTarget(0x1008) != top {
		t.Errorf("branch target = 0x%x, want 0x%x", br.BranchTarget(0x1008), top)
	}
	lui, _ := im.At(0x100c)
	ori, _ := im.At(0x1010)
	if got := uint32(lui.Imm)<<16 | uint32(ori.Imm); got != top {
		t.Errorf("LoadAddr materialized 0x%x, want 0x%x", got, top)
	}
	if j, _ := im.At(0x1014); j.Target != top {
		t.Errorf("jump target = 0x%x, want 0x%x", j.Target, top)
	}
	if im.Data[0] != top {
		t.Errorf("data label = 0x%x, want 0x%x", im.Data[0], top)
	}

	for _, localFirst := range []bool{false, true} {
		b := NewBuilder(0)
		if localFirst {
			b.LocalLabel("x")
			b.Label("x")
		} else {
			b.Label("x")
			b.LocalLabel("x")
		}
		b.Halt()
		if _, err := b.Build(); err == nil {
			t.Errorf("local first %v: expected duplicate label error", localFirst)
		}
	}
}

func TestComputeStats(t *testing.T) {
	im := buildLoop(t)
	s := ComputeStats(im)
	if s.Instrs != 7 {
		t.Errorf("Instrs = %d", s.Instrs)
	}
	if s.CondBranches != 1 || s.BackBranches != 1 {
		t.Errorf("branches = %d/%d", s.CondBranches, s.BackBranches)
	}
	if s.Calls != 1 || s.Returns != 1 {
		t.Errorf("calls/returns = %d/%d", s.Calls, s.Returns)
	}
	if s.IndJumps != 0 {
		t.Errorf("indirect jumps = %d", s.IndJumps)
	}
	// Blocks: the entry add, the call at loop, the decrement and
	// branch, the halt, and sub.
	if s.Blocks != 5 || s.AvgBlockSize != 7.0/5 {
		t.Errorf("Blocks = %d, AvgBlockSize = %f, want 5 and 1.4", s.Blocks, s.AvgBlockSize)
	}
}

// TestRuns: each instruction's run counts it and the straight-line
// instructions after it up to a control transfer or the image's end,
// capped at 255.
func TestRuns(t *testing.T) {
	im := buildLoop(t)
	// addi; jal; addi; bne; halt; addi; ret
	if got, want := im.Runs(), []uint8{1, 0, 1, 0, 0, 1, 0}; string(got) != string(want) {
		t.Errorf("loop runs = %v, want %v", got, want)
	}

	b := NewBuilder(0x1000)
	for i := 0; i < 300; i++ {
		b.Load(1, 2, 0)
	}
	b.Jmp("tail")
	b.Label("tail")
	b.Store(1, 2, 0)
	b.Nop()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runs := im.Runs()
	if len(runs) != im.NumInstrs() {
		t.Fatalf("%d runs for %d instructions", len(runs), im.NumInstrs())
	}
	for k, want := range map[int]uint8{0: 255, 44: 255, 45: 255, 46: 254, 299: 1, 300: 0, 301: 2, 302: 1} {
		if runs[k] != want {
			t.Errorf("runs[%d] = %d, want %d", k, runs[k], want)
		}
	}
}
