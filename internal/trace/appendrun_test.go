package trace

import (
	"math/rand"
	"testing"

	"tracepre/internal/isa"
)

// prefixInst decodes one byte into an instruction a trace can hold
// mid-way (no return, indirect jump or halt) and its direction.
func prefixInst(v byte) (isa.Inst, bool) {
	taken := v&0x80 != 0
	switch v % 6 {
	case 0:
		return isa.Inst{Op: isa.OpLoad, Rd: 1, Ra: 2}, false
	case 1:
		return isa.Inst{Op: isa.OpStore, Ra: 2, Rb: 1}, false
	case 2:
		return isa.Inst{Op: isa.OpBne, Ra: 1, Imm: -16}, taken
	case 3:
		return isa.Inst{Op: isa.OpBeq, Ra: 1, Imm: 16}, taken
	case 4:
		return isa.Inst{Op: isa.OpJal, Target: 0x4000}, false
	default:
		return isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: int32(v)}, false
	}
}

// runInst decodes one byte into a straight-line instruction.
func runInst(v byte) isa.Inst {
	switch v % 3 {
	case 0:
		return isa.Inst{Op: isa.OpLoad, Rd: 3, Ra: 2, Imm: int32(v)}
	case 1:
		return isa.Inst{Op: isa.OpStore, Ra: 2, Rb: 3}
	default:
		return isa.Inst{Op: isa.OpXor, Rd: 4, Ra: 4, Rb: 3}
	}
}

// checkAppendRun builds an unfinished trace from prefix under sel, then
// appends as much of run as the builder has Room for twice: through one
// AppendRun, and instruction by instruction through AppendClassified.
// Both must leave the same trace, done result, Room and alignment
// count. A prefix that completes the trace is skipped.
func checkAppendRun(t *testing.T, sel SelectConfig, prefix, run []byte) {
	t.Helper()
	if len(run) == 0 {
		return
	}
	b := NewBuilder(sel)
	pc := uint32(0x1000)
	for _, v := range prefix {
		in, taken := prefixInst(v)
		if appendInst(b, pc, in, taken) {
			return
		}
		pc += isa.WordSize
	}
	insts := make([]isa.Inst, len(run))
	for i, v := range run {
		insts[i] = runInst(v)
	}
	one, each := *b, *b
	m := min(len(insts), one.Room())
	done := one.AppendRun(pc, insts[:m])
	want := false
	for i := range insts[:m] {
		if want {
			t.Fatalf("%+v prefix %v: per-instruction appends ended the trace after %d of the run's %d", sel, prefix, i, m)
		}
		want = appendInst(&each, pc+uint32(i)*isa.WordSize, insts[i], false)
	}
	if done != want || one.Room() != each.Room() || one.sinceBwd != each.sinceBwd || one.Len() != each.Len() {
		t.Fatalf("%+v prefix %v run %d: AppendRun done=%v room=%d align=%d len=%d, per instruction %v/%d/%d/%d",
			sel, prefix, m, done, one.Room(), one.sinceBwd, one.Len(), want, each.Room(), each.sinceBwd, each.Len())
	}
	if a, e := one.Seal(pc), each.Seal(pc); !tracesEqual(a, e) {
		t.Fatalf("%+v prefix %v run %d: AppendRun built %v, per instruction %v", sel, prefix, m, a, e)
	}
}

// TestAppendRunMatchesAppendClassified holds AppendRun to
// AppendClassified over random builder states, selection rules and run
// lengths.
func TestAppendRunMatchesAppendClassified(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		sel := SelectConfig{MaxLen: 1 + rng.Intn(16), AlignMod: 1 + rng.Intn(8)}
		prefix := make([]byte, rng.Intn(sel.MaxLen))
		rng.Read(prefix)
		run := make([]byte, 1+rng.Intn(20))
		rng.Read(run)
		checkAppendRun(t, sel, prefix, run)
	}
}

func TestAppendRunPastRoomPanics(t *testing.T) {
	for _, n := range []int{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendRun of %d instructions did not panic", n)
				}
			}()
			NewBuilder(cfg()).AppendRun(0, make([]isa.Inst, n))
		}()
	}
}

func FuzzAppendRun(f *testing.F) {
	f.Add(uint8(16), uint8(4), []byte{}, []byte{5, 5, 5})
	f.Add(uint8(16), uint8(4), []byte{2, 5}, []byte{5, 5, 5, 5, 5, 5})
	f.Add(uint8(16), uint8(4), []byte{0x82, 0, 1}, []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add(uint8(7), uint8(3), []byte{3, 4, 2}, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(1), uint8(1), []byte{}, []byte{1})
	f.Add(uint8(16), uint8(1), []byte{2}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, maxLen, alignMod uint8, prefix, run []byte) {
		sel := SelectConfig{MaxLen: 1 + int(maxLen)%16, AlignMod: 1 + int(alignMod)%20}
		checkAppendRun(t, sel, prefix, run)
	})
}
