// Package program represents static programs: an image of decoded
// instructions at a base address, an optional initialized data section,
// and the exported labels. A Builder assembles images with labels and
// forward references, and CFG reports basic-block structure for
// workload statistics and tests.
package program

import (
	"fmt"

	"tracepre/internal/isa"
)

// Image is a loaded program: code, data, entry point and exported
// labels. Instruction addresses run from Base to Base+4*NumInstrs().
type Image struct {
	// Base is the byte address of the first instruction.
	Base uint32
	// Entry is the byte address execution starts at.
	Entry uint32
	// DataBase is the byte address of the first initialized data word.
	DataBase uint32
	// Data holds initialized data words starting at DataBase.
	Data []uint32
	// Symbols maps exported label names to byte addresses. Local labels
	// (Builder.LocalLabel) resolve references at Build and are not kept.
	Symbols map[string]uint32

	insts []isa.Inst // decoded instructions in address order
}

// NumInstrs returns the static instruction count.
func (im *Image) NumInstrs() int { return len(im.insts) }

// End returns the first byte address past the code.
func (im *Image) End() uint32 { return im.Base + uint32(len(im.insts))*isa.WordSize }

// Contains reports whether pc addresses an instruction in the image.
func (im *Image) Contains(pc uint32) bool {
	return pc >= im.Base && pc < im.End() && (pc-im.Base)%isa.WordSize == 0
}

// At returns the decoded instruction at pc. The second result is false if
// pc is outside the image or misaligned.
func (im *Image) At(pc uint32) (isa.Inst, bool) {
	if !im.Contains(pc) {
		return isa.Inst{}, false
	}
	return im.insts[(pc-im.Base)/isa.WordSize], true
}

// Insts returns the decoded instructions in address order, indexed by
// (pc-Base)/WordSize. The slice is shared and must not be mutated; hot
// loops (stream replay, the preconstruction walk) index it in place
// instead of copying each instruction out of At.
func (im *Image) Insts() []isa.Inst { return im.insts }

// Lookup returns the address of a symbol.
func (im *Image) Lookup(name string) (uint32, bool) {
	a, ok := im.Symbols[name]
	return a, ok
}

// Disassemble renders n instructions starting at pc, one per line.
func (im *Image) Disassemble(pc uint32, n int) string {
	out := ""
	for k := 0; k < n; k++ {
		in, ok := im.At(pc)
		if !ok {
			break
		}
		out += fmt.Sprintf("0x%06x: %s\n", pc, in)
		pc += isa.WordSize
	}
	return out
}

// fixupKind distinguishes the patching required for a forward reference.
type fixupKind uint8

const (
	fixJump   fixupKind = iota // absolute target (Jmp/Jal)
	fixBranch                  // PC-relative displacement (conditional branches)
	fixImm                     // label address into Imm (address materialization)
)

type fixup struct {
	index int // instruction index in code
	label string
	kind  fixupKind
}

// dataFixup patches a data word with a code label's address.
type dataFixup struct {
	index int // word index in data
	label string
}

// symbol is one label definition. Local labels resolve references at
// Build but stay out of Image.Symbols.
type symbol struct {
	addr  uint32
	local bool
}

// Builder assembles an Image incrementally. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	base       uint32
	code       []isa.Inst
	symbols    map[string]symbol
	fixups     []fixup
	data       []uint32
	dataFixups []dataFixup
	dbase      uint32
	entry      string
	err        error
}

// NewBuilder returns a Builder emitting code at the given base address.
func NewBuilder(base uint32) *Builder {
	return &Builder{base: base, symbols: make(map[string]symbol)}
}

// PC returns the address the next emitted instruction will have.
func (b *Builder) PC() uint32 { return b.base + uint32(len(b.code))*isa.WordSize }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

// fail records the first error; later calls keep the first.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Label defines an exported name at the current PC.
func (b *Builder) Label(name string) { b.define(name, b.PC(), false) }

// LabelAt defines an exported name at an arbitrary address (e.g. a
// data-section position).
func (b *Builder) LabelAt(name string, addr uint32) { b.define(name, addr, false) }

// LocalLabel defines name at the current PC for this build only:
// branches, jumps, address loads and data words resolve against it, but
// the image does not export it. Local and exported labels share one
// namespace, so a name can be defined once either way.
func (b *Builder) LocalLabel(name string) { b.define(name, b.PC(), true) }

func (b *Builder) define(name string, addr uint32, local bool) {
	if _, dup := b.symbols[name]; dup {
		b.fail(fmt.Errorf("program: duplicate label %q", name))
		return
	}
	b.symbols[name] = symbol{addr: addr, local: local}
}

// DataAddr returns the byte address the next data word will occupy.
func (b *Builder) DataAddr() uint32 {
	return b.dbase + uint32(len(b.data))*4
}

// Emit appends a decoded instruction.
func (b *Builder) Emit(in isa.Inst) { b.code = append(b.code, in) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNop}) }

// ALU emits a register-register ALU operation.
func (b *Builder) ALU(op isa.Op, rd, ra, rb uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// ALUI emits a register-immediate ALU operation.
func (b *Builder) ALUI(op isa.Op, rd, ra uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Load emits rd <- mem[ra+imm].
func (b *Builder) Load(rd, ra uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: rd, Ra: ra, Imm: imm})
}

// Store emits mem[ra+imm] <- rb.
func (b *Builder) Store(rb, ra uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpStore, Rb: rb, Ra: ra, Imm: imm})
}

// Branch emits a conditional branch to a label.
func (b *Builder) Branch(op isa.Op, ra, rb uint8, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixBranch})
	b.Emit(isa.Inst{Op: op, Ra: ra, Rb: rb})
}

// Jmp emits an unconditional direct jump to a label.
func (b *Builder) Jmp(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixJump})
	b.Emit(isa.Inst{Op: isa.OpJmp})
}

// Call emits a JAL to a label.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixJump})
	b.Emit(isa.Inst{Op: isa.OpJal})
}

// Ret emits a return (jr through the link register).
func (b *Builder) Ret() { b.Emit(isa.Inst{Op: isa.OpJr, Ra: isa.RegLink}) }

// JumpReg emits an indirect jump through ra.
func (b *Builder) JumpReg(ra uint8) { b.Emit(isa.Inst{Op: isa.OpJr, Ra: ra}) }

// CallReg emits an indirect call through ra.
func (b *Builder) CallReg(ra uint8) { b.Emit(isa.Inst{Op: isa.OpJalr, Ra: ra}) }

// Halt emits the halt instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHalt}) }

// LoadAddr materializes the address of a label into rd using lui+ori.
// It always emits exactly two instructions.
func (b *Builder) LoadAddr(rd uint8, label string) {
	// lui rd, hi16(label); ori rd, rd, lo16(label) — patched at Build.
	b.fixups = append(b.fixups, fixup{index: len(b.code), label: label, kind: fixImm})
	b.Emit(isa.Inst{Op: isa.OpLui, Rd: rd})
	b.Emit(isa.Inst{Op: isa.OpOrI, Rd: rd, Ra: rd})
}

// LoadConst materializes a 32-bit constant into rd with lui+ori (always two
// instructions, keeping block sizes predictable for the generator).
func (b *Builder) LoadConst(rd uint8, v uint32) {
	b.Emit(isa.Inst{Op: isa.OpLui, Rd: rd, Imm: int32(v >> 16)})
	b.Emit(isa.Inst{Op: isa.OpOrI, Rd: rd, Ra: rd, Imm: int32(v & 0xFFFF)})
}

// SetEntry selects the label execution starts at. Defaults to the image base.
func (b *Builder) SetEntry(label string) { b.entry = label }

// SetData installs the initialized data section, replacing any words
// added incrementally.
func (b *Builder) SetData(base uint32, words []uint32) {
	b.dbase = base
	b.data = words
	b.dataFixups = nil
}

// SetDataBase sets the data section base address for incremental data.
func (b *Builder) SetDataBase(base uint32) { b.dbase = base }

// AddDataWord appends a literal word to the data section and returns its
// byte address.
func (b *Builder) AddDataWord(v uint32) uint32 {
	addr := b.dbase + uint32(len(b.data))*4
	b.data = append(b.data, v)
	return addr
}

// AddDataLabel appends a data word that Build patches with the address
// of a code label (for jump tables). It returns the word's byte address.
func (b *Builder) AddDataLabel(label string) uint32 {
	b.dataFixups = append(b.dataFixups, dataFixup{index: len(b.data), label: label})
	return b.AddDataWord(0)
}

// Build resolves all references, then encodes every instruction and
// decodes the word back: the round trip rejects instructions the
// encoding cannot carry, and the image keeps only the decoded result.
func (b *Builder) Build() (*Image, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		sym, ok := b.symbols[f.label]
		if !ok {
			return nil, fmt.Errorf("program: undefined label %q", f.label)
		}
		addr := sym.addr
		switch f.kind {
		case fixJump:
			b.code[f.index].Target = addr
		case fixBranch:
			pc := b.base + uint32(f.index)*isa.WordSize
			disp := int64(addr) - int64(pc)
			if disp < -(1<<15) || disp > 1<<15-1 {
				return nil, fmt.Errorf("program: branch at 0x%x to %q out of range (%d bytes)", pc, f.label, disp)
			}
			b.code[f.index].Imm = int32(disp)
		case fixImm:
			b.code[f.index].Imm = int32(addr >> 16)
			b.code[f.index+1].Imm = int32(addr & 0xFFFF)
		}
	}
	for _, f := range b.dataFixups {
		sym, ok := b.symbols[f.label]
		if !ok {
			return nil, fmt.Errorf("program: undefined label %q in data", f.label)
		}
		b.data[f.index] = sym.addr
	}
	insts := make([]isa.Inst, len(b.code))
	for k, in := range b.code {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("program: instruction %d (%v): %w", k, in, err)
		}
		if insts[k], err = isa.Decode(w); err != nil {
			return nil, fmt.Errorf("program: word %d at 0x%x: %w", k, b.base+uint32(k)*isa.WordSize, err)
		}
	}
	entry := b.base
	if b.entry != "" {
		sym, ok := b.symbols[b.entry]
		if !ok {
			return nil, fmt.Errorf("program: undefined entry label %q", b.entry)
		}
		entry = sym.addr
	}
	syms := make(map[string]uint32)
	for name, sym := range b.symbols {
		if !sym.local {
			syms[name] = sym.addr
		}
	}
	return &Image{
		Base:     b.base,
		Entry:    entry,
		DataBase: b.dbase,
		Data:     append([]uint32(nil), b.data...),
		Symbols:  syms,
		insts:    insts,
	}, nil
}
