package emulator

import (
	"errors"
	"testing"
	"unsafe"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

func build(t *testing.T, f func(b *program.Builder)) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	f(b)
	im, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return im
}

// run executes until halt or budget and returns the emulator.
func run(t *testing.T, im *program.Image, budget uint64) *Emulator {
	t.Helper()
	e := New(im)
	if _, err := e.Run(budget, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func TestALUOps(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 1, 0, 20) // r1 = 20
		b.ALUI(isa.OpAddI, 2, 0, 6)  // r2 = 6
		b.ALU(isa.OpAdd, 3, 1, 2)    // r3 = 26
		b.ALU(isa.OpSub, 4, 1, 2)    // r4 = 14
		b.ALU(isa.OpMul, 5, 1, 2)    // r5 = 120
		b.ALU(isa.OpDiv, 6, 1, 2)    // r6 = 3
		b.ALU(isa.OpAnd, 7, 1, 2)    // r7 = 4
		b.ALU(isa.OpOr, 8, 1, 2)     // r8 = 22
		b.ALU(isa.OpXor, 9, 1, 2)    // r9 = 18
		b.ALUI(isa.OpShlI, 10, 1, 2) // r10 = 80
		b.ALUI(isa.OpShrI, 11, 1, 2) // r11 = 5
		b.ALU(isa.OpSlt, 12, 2, 1)   // r12 = 1
		b.ALU(isa.OpSltu, 13, 1, 2)  // r13 = 0
		b.ALUI(isa.OpOrI, 14, 0, 0xFFFF)
		b.ALUI(isa.OpXorI, 15, 14, 0x00FF) // r15 = 0xFF00
		b.ALUI(isa.OpAndI, 16, 14, 0x0F0F) // r16 = 0x0F0F
		b.Emit(isa.Inst{Op: isa.OpLui, Rd: 17, Imm: 0x1234})
		b.Halt()
	})
	e := run(t, im, 100)
	want := map[int]uint32{
		3: 26, 4: 14, 5: 120, 6: 3, 7: 4, 8: 22, 9: 18,
		10: 80, 11: 5, 12: 1, 13: 0,
		15: 0xFF00, 16: 0x0F0F, 17: 0x12340000,
	}
	for reg, v := range want {
		if e.Regs[reg] != v {
			t.Errorf("r%d = %d, want %d", reg, e.Regs[reg], v)
		}
	}
	if !e.Halted() {
		t.Error("not halted")
	}
}

func TestDivByZero(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 1, 0, 7)
		b.ALU(isa.OpDiv, 2, 1, 0)
		b.Halt()
	})
	e := run(t, im, 10)
	if e.Regs[2] != 0 {
		t.Errorf("div by zero = %d, want 0", e.Regs[2])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 0, 0, 99)
		b.Halt()
	})
	e := run(t, im, 10)
	if e.Regs[0] != 0 {
		t.Errorf("r0 = %d, want 0", e.Regs[0])
	}
}

func TestLoadStore(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.LoadConst(1, 0x20000)
		b.ALUI(isa.OpAddI, 2, 0, 42)
		b.Store(2, 1, 8)  // mem[0x20008] = 42
		b.Load(3, 1, 8)   // r3 = 42
		b.Load(4, 1, 100) // r4 = 0 (untouched memory)
		b.Halt()
	})
	e := run(t, im, 10)
	if e.Regs[3] != 42 {
		t.Errorf("r3 = %d, want 42", e.Regs[3])
	}
	if e.Regs[4] != 0 {
		t.Errorf("r4 = %d, want 0", e.Regs[4])
	}
	if e.Mem.Load(0x20008) != 42 {
		t.Errorf("mem = %d", e.Mem.Load(0x20008))
	}
}

// TestEmulatorFillsWholeCacheLines pins the padding that keeps
// emulators recording on different goroutines off each other's cache
// lines: the struct must stay a whole number of 64-byte lines.
func TestEmulatorFillsWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit pointers")
	}
	if size := unsafe.Sizeof(Emulator{}); size%64 != 0 {
		t.Errorf("Emulator is %d bytes, want a multiple of 64: adjust its padding", size)
	}
}

func TestDataSectionLoaded(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.LoadConst(1, 0x30000)
		b.Load(2, 1, 0)
		b.Load(3, 1, 4)
		b.Halt()
		b.SetData(0x30000, []uint32{111, 222})
	})
	e := run(t, im, 10)
	if e.Regs[2] != 111 || e.Regs[3] != 222 {
		t.Errorf("data loads = %d, %d", e.Regs[2], e.Regs[3])
	}
}

func TestBranches(t *testing.T) {
	// Counted loop: r1 counts 5 down to 0; r2 accumulates iterations.
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 1, 0, 5)
		b.Label("loop")
		b.ALUI(isa.OpAddI, 2, 2, 1)
		b.ALUI(isa.OpAddI, 1, 1, -1)
		b.Branch(isa.OpBne, 1, 0, "loop")
		b.Halt()
	})
	e := run(t, im, 100)
	if e.Regs[2] != 5 {
		t.Errorf("iterations = %d, want 5", e.Regs[2])
	}
}

func TestBranchKinds(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 1, 0, -1) // r1 = -1 (signed)
		b.ALUI(isa.OpAddI, 2, 0, 1)
		b.Branch(isa.OpBlt, 1, 2, "lt_ok") // -1 < 1 signed: taken
		b.ALUI(isa.OpAddI, 10, 0, 1)       // skipped
		b.Label("lt_ok")
		b.Branch(isa.OpBge, 2, 1, "ge_ok") // 1 >= -1: taken
		b.ALUI(isa.OpAddI, 11, 0, 1)       // skipped
		b.Label("ge_ok")
		b.Branch(isa.OpBeq, 1, 1, "eq_ok")
		b.ALUI(isa.OpAddI, 12, 0, 1) // skipped
		b.Label("eq_ok")
		b.Halt()
	})
	e := run(t, im, 100)
	if e.Regs[10] != 0 || e.Regs[11] != 0 || e.Regs[12] != 0 {
		t.Errorf("branch fallthroughs executed: r10=%d r11=%d r12=%d",
			e.Regs[10], e.Regs[11], e.Regs[12])
	}
}

func TestCallReturn(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.Call("fn")
		b.ALUI(isa.OpAddI, 2, 0, 7) // after return
		b.Halt()
		b.Label("fn")
		b.ALUI(isa.OpAddI, 1, 0, 3)
		b.Ret()
	})
	e := run(t, im, 100)
	if e.Regs[1] != 3 || e.Regs[2] != 7 {
		t.Errorf("r1=%d r2=%d", e.Regs[1], e.Regs[2])
	}
}

func TestIndirectCall(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.LoadAddr(5, "fn")
		b.CallReg(5)
		b.Halt()
		b.Label("fn")
		b.ALUI(isa.OpAddI, 1, 0, 9)
		b.Ret()
	})
	e := run(t, im, 100)
	if e.Regs[1] != 9 {
		t.Errorf("r1 = %d, want 9", e.Regs[1])
	}
}

func TestDynRecords(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 1, 0, 1)
		b.Branch(isa.OpBeq, 1, 0, "skip") // not taken
		b.Branch(isa.OpBne, 1, 0, "skip") // taken
		b.Nop()                           // never executed
		b.Label("skip")
		b.Halt()
	})
	e := New(im)
	var recs []Dyn
	if _, err := e.Run(100, func(d Dyn) { recs = append(recs, d) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("committed %d records", len(recs))
	}
	if recs[1].Taken {
		t.Error("beq should not be taken")
	}
	if recs[1].NextPC != recs[1].PC+4 {
		t.Error("not-taken branch NextPC wrong")
	}
	if !recs[2].Taken {
		t.Error("bne should be taken")
	}
	skip, _ := im.Lookup("skip")
	if recs[2].NextPC != skip {
		t.Errorf("taken branch NextPC = 0x%x, want 0x%x", recs[2].NextPC, skip)
	}
	for k, r := range recs {
		if r.Seq != uint64(k) {
			t.Errorf("Seq[%d] = %d", k, r.Seq)
		}
	}
}

func TestHaltBehaviour(t *testing.T) {
	im := build(t, func(b *program.Builder) { b.Halt() })
	e := New(im)
	if n, err := e.Run(1, nil); n != 1 || err != nil {
		t.Fatalf("first instruction: %d, %v", n, err)
	}
	if !e.Halted() {
		t.Error("not halted")
	}
	// Recording after halt commits nothing, without error.
	st, err := e.Record(10)
	if st.Len() != 0 || err != nil {
		t.Errorf("Record after halt = %d instructions, %v", st.Len(), err)
	}
	n, err := e.Run(10, nil)
	if n != 0 || err != nil {
		t.Errorf("Run after halt = %d, %v", n, err)
	}
}

func TestBadPC(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.ALUI(isa.OpAddI, 1, 0, 4) // r1 = 4: below image base
		b.JumpReg(1)
		b.Halt()
	})
	e := New(im)
	_, err := e.Run(10, nil)
	if !errors.Is(err, ErrBadPC) {
		t.Errorf("err = %v, want ErrBadPC", err)
	}
}

func TestRunBudgetAndCallback(t *testing.T) {
	im := build(t, func(b *program.Builder) {
		b.Label("loop")
		b.ALUI(isa.OpAddI, 1, 1, 1)
		b.Jmp("loop")
	})
	e := New(im)
	var calls uint64
	n, err := e.Run(1000, func(d Dyn) {
		if d.Seq != calls {
			t.Fatalf("callback %d saw Seq %d", calls, d.Seq)
		}
		calls++
	})
	if err != nil || n != 1000 || calls != 1000 {
		t.Errorf("Run = %d, %v with %d callbacks", n, err, calls)
	}
	if e.Committed() != 1000 {
		t.Errorf("Committed = %d", e.Committed())
	}
	// A second Run resumes where the first stopped.
	if n, err = e.Run(500, nil); err != nil || n != 500 || e.Committed() != 1500 || e.Regs[1] != 750 {
		t.Errorf("resumed Run = %d, %v: Committed %d, r1 %d", n, err, e.Committed(), e.Regs[1])
	}
}

func TestMemoryPaging(t *testing.T) {
	m := NewMemory()
	m.Store(0, 1)
	m.Store(1<<pageShift, 2)
	m.Store(0xFFFFFFFC, 3)
	if m.Pages() != 3 {
		t.Errorf("pages = %d", m.Pages())
	}
	if m.Load(0) != 1 || m.Load(1<<pageShift) != 2 || m.Load(0xFFFFFFFC) != 3 {
		t.Error("page contents wrong")
	}
	// Unaligned addresses hit the containing word.
	if m.Load(2) != 1 {
		t.Error("unaligned load missed containing word")
	}
}

func TestLinkRegisterSemantics(t *testing.T) {
	// jalr through the link register itself must jump to the OLD value.
	im := build(t, func(b *program.Builder) {
		b.LoadAddr(isa.RegLink, "fn")
		b.CallReg(isa.RegLink)
		b.Halt()
		b.Label("fn")
		b.ALUI(isa.OpAddI, 1, 0, 5)
		b.Ret()
	})
	e := run(t, im, 100)
	if e.Regs[1] != 5 {
		t.Errorf("r1 = %d, want 5", e.Regs[1])
	}
}
