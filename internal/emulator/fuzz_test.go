package emulator

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// FuzzReplayer decodes damaged copies of a recorded stream through
// DecodeChunks: the branch-outcome bits (field even) or the aux deltas
// (field odd) are truncated to cut bytes (xor 0) or have byte cut
// flipped by xor. Whatever the damage, the pass must end cleanly — a
// nil error after every recorded instruction, or an error wrapping
// ErrCorruptStream — and never panic.
func FuzzReplayer(f *testing.F) {
	st := recordBench(f, "li", 20_000)
	// Half the branch bits: decode runs off the end of taken.
	f.Add(uint8(0), uint32(len(st.taken)/2), uint8(0), uint16(0))
	// A flipped aux bit whose jump target lies outside the image.
	f.Add(uint8(1), uint32(12), uint8(1), uint16(7))
	f.Fuzz(func(t *testing.T, field uint8, cut uint32, xor uint8, chunkLen uint16) {
		bad := *st
		buf := &bad.taken
		if field%2 == 1 {
			buf = &bad.aux
		}
		b := append([]byte(nil), *buf...)
		switch {
		case xor == 0:
			b = b[:int(cut)%(len(b)+1)]
		case len(b) > 0:
			b[int(cut)%len(b)] ^= xor
		}
		*buf = b

		cr := bad.DecodeChunks(int(chunkLen))
		defer cr.Close()
		var n uint64
		for {
			chunk, ok := cr.Next()
			if !ok {
				break
			}
			n += uint64(len(chunk))
		}
		switch err := cr.Err(); {
		case err == nil && n != st.Len():
			t.Fatalf("clean pass decoded %d of %d instructions", n, st.Len())
		case err != nil && !errors.Is(err, ErrCorruptStream):
			t.Fatalf("damaged stream failed with %v, want ErrCorruptStream", err)
		}
	})
}

// Instruction kinds fuzzProgram draws from, one per four input bytes.
const (
	fzAddI = iota
	fzLui
	fzALU
	fzLoad
	fzStore
	fzBranch
	fzJal
	fzJmp
	fzJr
	fzJalr
	fzHalt
	fzKinds
)

var (
	fzALUOps    = [...]isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSltu}
	fzBranchOps = [...]isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}
)

// fzDataBase puts the initialized data section across a page boundary.
const fzDataBase = 0x20000 - 8

// fuzzProgram builds a program of at most 64 instructions at 0x1000 from
// prog, four bytes (kind, x, y, z) per instruction, over registers r0-r7
// and the link register. Lui loads 0x10000, 0x20000 or 0x30000, so loads
// and stores at ±512-byte offsets straddle the data section's two pages
// or reach pages nothing has stored to; branches move up to 32 bytes
// either way and jumps land anywhere in the first KiB, both often off
// the image.
func fuzzProgram(prog []byte) (*program.Image, error) {
	const base = 0x1000
	b := program.NewBuilder(base)
	for k := 0; k+4 <= len(prog) && k < 64*4; k += 4 {
		x, y, z := prog[k+1]%8, prog[k+2]%8, prog[k+3]
		off := int32(int8(z)) * 4
		switch prog[k] % fzKinds {
		case fzAddI:
			b.ALUI(isa.OpAddI, x, y, off)
		case fzLui:
			b.Emit(isa.Inst{Op: isa.OpLui, Rd: x, Imm: 1 + int32(z%3)})
		case fzALU:
			b.ALU(fzALUOps[int(z)%len(fzALUOps)], x, y, prog[k+2]/8%8)
		case fzLoad:
			b.Load(x, y, off)
		case fzStore:
			b.Store(x, y, off)
		case fzBranch:
			b.Emit(isa.Inst{Op: fzBranchOps[z%4], Ra: x, Rb: y, Imm: int32(int8(z)) / 16 * 4})
		case fzJal:
			b.Emit(isa.Inst{Op: isa.OpJal, Target: base + uint32(z)*4})
		case fzJmp:
			b.Emit(isa.Inst{Op: isa.OpJmp, Target: base + uint32(z)*4})
		case fzJr:
			if y%2 == 1 {
				x = isa.RegLink
			}
			b.Emit(isa.Inst{Op: isa.OpJr, Ra: x})
		case fzJalr:
			b.Emit(isa.Inst{Op: isa.OpJalr, Ra: x})
		case fzHalt:
			b.Halt()
		}
	}
	b.SetData(fzDataBase, []uint32{1, 2, 3, 4})
	return b.Build()
}

// FuzzRecord holds Emulator.Record to the reference interpreter and
// encoder (reference_test.go) on random small programs at fuzzed
// budgets: the same stream bytes, committed count and error, and the
// same final registers, PC, halted flag and stored pages.
func FuzzRecord(f *testing.F) {
	// A load from a page nothing has stored to, then a store to it and
	// a load back: a page cache that remembered the absent page would
	// lose the store. The budget ends on the halt, one short of it, and
	// well past it.
	trap := []byte{
		fzLui, 1, 0, 2, // r1 = 0x30000
		fzLoad, 2, 1, 0, // r2 = mem[r1]
		fzAddI, 3, 0, 5, // r3 = 20
		fzStore, 3, 1, 0, // mem[r1] = r3
		fzLoad, 4, 1, 0, // r4 = mem[r1]
		fzHalt, 0, 0, 0,
	}
	f.Add(trap, uint16(6))
	f.Add(trap, uint16(5))
	f.Add(trap, uint16(100))
	// A loop whose loads and stores walk down across the data section's
	// page boundary.
	f.Add([]byte{
		fzLui, 1, 0, 1, // r1 = 0x20000
		fzLoad, 2, 1, 0xFF, // r2 = mem[r1-4]
		fzStore, 2, 1, 0x01, // mem[r1+4] = r2
		fzAddI, 1, 1, 0xFE, // r1 -= 8
		fzBranch, 1, 0, 0xCD, // bne r1, r0, back to the load
		fzHalt, 0, 0, 0,
	}, uint16(3000))
	// A call and a return through the link register, then a jump off
	// the image.
	f.Add([]byte{
		fzJal, 0, 0, 3, // call the addi
		fzJmp, 0, 0, 200, // off the image
		fzHalt, 0, 0, 0,
		fzAddI, 1, 0, 1,
		fzJr, 0, 1, 0, // return
	}, uint16(10))
	f.Fuzz(func(t *testing.T, prog []byte, budget uint16) {
		im, err := fuzzProgram(prog)
		if err != nil {
			t.Skip(err)
		}
		want, ref, wantErr := refRecord(im, uint64(budget))
		e := New(im)
		got, err := e.Record(uint64(budget))
		switch {
		case fmt.Sprint(err) != fmt.Sprint(wantErr):
			t.Fatalf("error %v, reference %v", err, wantErr)
		case got.entry != want.entry || got.n != want.n || got.nbits != want.nbits:
			t.Fatalf("stream entry 0x%x, %d instructions, %d branch bits; reference 0x%x, %d, %d",
				got.entry, got.n, got.nbits, want.entry, want.n, want.nbits)
		case !bytes.Equal(got.taken, want.taken) || !bytes.Equal(got.aux, want.aux):
			t.Fatalf("stream bytes %x/%x, reference %x/%x", got.taken, got.aux, want.taken, want.aux)
		case e.Committed() != ref.seq || e.PC != ref.PC || e.Halted() != ref.halted || e.Regs != ref.Regs:
			t.Fatalf("state after %d: pc 0x%x halted %v regs %v; reference after %d: pc 0x%x halted %v regs %v",
				e.Committed(), e.PC, e.Halted(), e.Regs, ref.seq, ref.PC, ref.halted, ref.Regs)
		case len(e.Mem.pages) != len(ref.Mem.pages):
			t.Fatalf("%d pages stored, reference %d", len(e.Mem.pages), len(ref.Mem.pages))
		}
		for idx, p := range ref.Mem.pages {
			if q, ok := e.Mem.pages[idx]; !ok || *q != *p {
				t.Fatalf("page 0x%x differs from the reference", idx)
			}
		}
	})
}
