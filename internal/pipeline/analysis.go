package pipeline

import (
	"tracepre/internal/isa"
	"tracepre/internal/preproc"
	"tracepre/internal/trace"
)

// maxSlots is the longest trace the backend dispatches: trace selection
// caps traces at 16 instructions (trace.SelectConfig.Validate), so
// per-slot state lives in fixed arrays and slot sets in uint16 masks.
const maxSlots = 16

// analysis is what dispatch needs to know about one distinct trace that
// depends on its instructions alone: where each source register comes
// from, which slots write a register last, which are loads, stores and
// control instructions, and, once a preprocessing member asked for it,
// the fill unit's preprocessing (§6). It keeps no PCs and no
// immediates: keys holds the only instruction fields either analysis
// reads, so an entry is reused exactly when both analyses would compute
// it again unchanged.
type analysis struct {
	id trace.ID
	n  uint8 // slots

	// keys[i] packs slot i's Op, Rd, Ra and Rb (key).
	keys [maxSlots]uint32
	// src[i] lists where slot i's source registers come from: an
	// in-trace producer, the last earlier slot writing the register,
	// is inTrace|slot; a register an earlier trace produces is its
	// number. Zero ends the list: r0 is never a dependence.
	src [maxSlots][2]uint8

	// lastWrites marks the slots that write a register last in the
	// trace: the results the trace publishes.
	loads, stores, control, lastWrites uint16

	// The fill unit's preprocessing (preproc.Info), valid when pre is
	// set: the constant-folded slots, which read no registers;
	// fusedOf[p], the consumer fused onto slot p (-1 none), which issues
	// with p; and the first heads entries of order, the issue order
	// without the fused consumers.
	pre     bool
	heads   uint8
	folded  uint16
	fusedOf [maxSlots]int8
	order   [maxSlots]uint8
}

// inTrace flags a source operand produced inside the trace (src).
const inTrace = 0x80

// key packs the fields of an instruction that the dependence analysis
// and preprocessing read.
func key(in *isa.Inst) uint32 {
	return uint32(in.Op) | uint32(in.Rd)<<8 | uint32(in.Ra)<<16 | uint32(in.Rb)<<24
}

// matches reports whether the entry was built from instructions equal
// to insts in every field the analyses read.
func (a *analysis) matches(insts []isa.Inst) bool {
	if int(a.n) != len(insts) {
		return false
	}
	for i := range insts {
		if key(&insts[i]) != a.keys[i] {
			return false
		}
	}
	return true
}

// build analyzes a trace's instructions into the entry, dropping any
// preprocessing it held.
func (a *analysis) build(id trace.ID, insts []isa.Inst) {
	*a = analysis{id: id, n: uint8(len(insts))}
	var writer [isa.NumRegs]int8 // last slot so far writing each register
	for r := range writer {
		writer[r] = -1
	}
	for i := range insts {
		in := &insts[i]
		bit := uint16(1) << i
		a.keys[i] = key(in)
		var regs [2]uint8
		k := 0
		for _, r := range in.ReadsRegs(regs[:0]) {
			if r == isa.RegZero {
				continue
			}
			a.src[i][k] = r
			if p := writer[r]; p >= 0 {
				a.src[i][k] = inTrace | uint8(p)
			}
			k++
		}
		if rd, w := in.WritesReg(); w {
			if p := writer[rd]; p >= 0 {
				a.lastWrites &^= 1 << p
			}
			writer[rd] = int8(i)
			a.lastWrites |= bit
		}
		switch {
		case in.Op == isa.OpLoad:
			a.loads |= bit
		case in.Op == isa.OpStore:
			a.stores |= bit
		case in.IsControl():
			a.control |= bit
		}
	}
}

// written returns the register slot i writes, for a slot in lastWrites.
func (a *analysis) written(i int) uint8 {
	k := a.keys[i]
	rd, _ := isa.Inst{Op: isa.Op(k), Rd: uint8(k >> 8)}.WritesReg()
	return rd
}

// analysisTable holds the analysis of every distinct trace the
// full-timing members of one group dispatch. Members are fed the same
// traces in lockstep, so the first member to dispatch a trace analyzes
// it, the first preprocessing member preprocesses it, and the others
// reuse the entry. Entries live in slabs and are found by trace ID
// through an open-addressed index. Like the group, a table is used from
// one goroutine.
type analysisTable struct {
	index []uint32 // entry number + 1 by ID.Hash, 0 empty; linear probing
	mask  uint32
	slabs [][]analysis
	n     int          // entries
	info  preproc.Info // preprocessing scratch, reused for every entry
}

const (
	// analysesPerSlab sizes one slab allocation.
	analysesPerSlab = 256
	// minAnalysisSlots is the initial index size (power of two).
	minAnalysisSlots = 1024
)

// newAnalysisTable returns an empty table.
func newAnalysisTable() *analysisTable {
	return &analysisTable{index: make([]uint32, minAnalysisSlots), mask: minAnalysisSlots - 1}
}

// entry returns entry k.
func (t *analysisTable) entry(k uint32) *analysis {
	return &t.slabs[k/analysesPerSlab][k%analysesPerSlab]
}

// lookup returns the analysis of tr, building it on first sight. An
// entry under tr's ID built from other instructions (hand-built traces
// can share an ID) is rebuilt in place.
func (t *analysisTable) lookup(tr *trace.Trace) *analysis {
	id := tr.ID()
	h := id.Hash()
	for i := h & t.mask; t.index[i] != 0; i = (i + 1) & t.mask {
		if a := t.entry(t.index[i] - 1); a.id == id {
			if !a.matches(tr.Insts) {
				a.build(id, tr.Insts)
			}
			return a
		}
	}
	if t.n%analysesPerSlab == 0 {
		t.slabs = append(t.slabs, make([]analysis, analysesPerSlab))
	}
	k := uint32(t.n)
	t.n++
	a := t.entry(k)
	a.build(id, tr.Insts)
	if 2*t.n > len(t.index) {
		t.index = make([]uint32, 2*len(t.index))
		t.mask = uint32(len(t.index) - 1)
		for j := uint32(0); j < k; j++ {
			t.put(t.entry(j).id.Hash(), j)
		}
	}
	t.put(h, k)
	return a
}

// put indexes entry k under hash h.
func (t *analysisTable) put(h, k uint32) {
	i := h & t.mask
	for t.index[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.index[i] = k + 1
}

// preprocess fills in a's preprocessing from tr, whose instructions a
// matches.
func (t *analysisTable) preprocess(a *analysis, tr *trace.Trace) {
	info := &t.info
	info.Compute(tr)
	a.folded = uint16(info.Folded)
	for i := range a.fusedOf {
		a.fusedOf[i] = -1
	}
	for j, p := range info.FusedWith {
		if p >= 0 {
			a.fusedOf[p] = int8(j)
		}
	}
	a.heads = 0
	for _, i := range info.Order {
		if info.FusedWith[i] < 0 {
			a.order[a.heads] = i
			a.heads++
		}
	}
	a.pre = true
}
