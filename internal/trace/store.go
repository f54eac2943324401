// Interned, append-only trace storage.
//
// Loop-dominated streams demand the same traces over and over: a trace
// evicted from a 64-entry trace cache is rebuilt by the slow path
// thousands of times per run, and a trace cache, buffer or engine that
// kept a deep copy (Clone) of each one would allocate per rebuild. The
// Store keeps each distinct trace once instead:
//
//   - an entry is a trace header carved from a header slab plus its PCs
//     and instructions, bump-allocated at exactly the trace's length
//     from PC and instruction slabs, so interning allocates only when a
//     slab is carved;
//   - entries are never freed, moved or changed: a pointer Intern
//     returns stays valid for the Store's life, so the trace stores
//     hold plain pointers and nothing is released;
//   - the index is keyed by content: two traces with one ID can differ
//     (past an indirect jump, say), so a lookup probes past a same-ID
//     entry whose content differs, and new content gets its own entry.
//
// The working set stays small because traces are reused heavily across
// loops and calls, so one Store serves a whole sweep group
// (pipeline.NewGroup): every member interns through its own Handle,
// which counts that member's use. The Store is single-goroutine, like
// the group that owns it.
package trace

import (
	"unsafe"

	"tracepre/internal/isa"
)

const (
	// slabInsts is the instruction capacity of one PC/instruction slab
	// pair (16 KiB of PCs and 48 KiB of instructions).
	slabInsts = 4096
	// hdrsPerSlab is the trace headers carved per header slab.
	hdrsPerSlab = 256
	// instBytes is the slab storage of one trace instruction: its PC
	// and its decoded instruction.
	instBytes = int64(unsafe.Sizeof(uint32(0)) + unsafe.Sizeof(isa.Inst{}))
)

// StoreStats is one member's use of a Store, as its Handle counts it.
// It depends only on the member's own Intern calls, so a member reads
// the same whether its table is shared or private.
type StoreStats struct {
	Interns   uint64 // Intern calls
	Hits      uint64 // calls for a trace the member had interned before
	SlabBytes int64  // PC and instruction bytes of the member's distinct traces
}

// Store is an append-only table of interned traces. The zero value is
// not usable; call NewStore.
type Store struct {
	// Open-addressed index by ID hash, linear probing. slots is a
	// power of two, at most three quarters full; there is no deletion.
	slots []slot
	mask  uint32

	// Entry i is hdrs[i/hdrsPerSlab][i%hdrsPerSlab]. pcs and insts are
	// the current slabs' unused tails.
	hdrs  [][]Trace
	n     int32
	pcs   []uint32
	insts []isa.Inst
}

// slot is one index entry: an entry's ID hash and its index plus one
// (0 marks an empty slot). Probing compares hashes in the index itself
// and loads a trace header only on a hash match.
type slot struct {
	hash uint32
	idx  int32
}

// minIndexSlots is the initial index size (power of two).
const minIndexSlots = 1024

// NewStore returns an empty table.
func NewStore() *Store {
	return &Store{slots: make([]slot, minIndexSlots), mask: minIndexSlots - 1}
}

// Len returns the number of entries: the distinct traces interned.
func (s *Store) Len() int { return int(s.n) }

// Intern returns the table's trace equal in content to the borrowed
// trace b, appending a copy when none is there yet. The result stays
// valid and unchanged for the table's life.
func (s *Store) Intern(b *Trace) *Trace {
	t, _ := s.intern(b)
	return t
}

// intern is Intern that also returns the entry's index.
//
// The entry's Succ is its first interner's: a hit does not overwrite
// it. Nothing reads an interned trace's Succ (preconstruction reads the
// borrowed original's).
func (s *Store) intern(b *Trace) (*Trace, int32) {
	h := b.ID().Hash()
	i := h & s.mask
	for ; s.slots[i].idx != 0; i = (i + 1) & s.mask {
		if e := s.slots[i]; e.hash == h {
			if t := s.entry(e.idx - 1); t.contentEqual(b) {
				return t, e.idx - 1
			}
		}
	}
	idx := s.n
	if idx%hdrsPerSlab == 0 {
		s.hdrs = append(s.hdrs, make([]Trace, hdrsPerSlab))
	}
	t := s.entry(idx)
	*t = *b
	n := len(b.PCs)
	if n > len(s.pcs) {
		s.pcs = make([]uint32, max(slabInsts, n))
		s.insts = make([]isa.Inst, max(slabInsts, n))
	}
	t.PCs, s.pcs = s.pcs[:n:n], s.pcs[n:]
	t.Insts, s.insts = s.insts[:n:n], s.insts[n:]
	copy(t.PCs, b.PCs)
	copy(t.Insts, b.Insts)
	s.n++
	s.slots[i] = slot{hash: h, idx: idx + 1}
	if int(s.n)*4 >= len(s.slots)*3 {
		s.growIndex()
	}
	return t, idx
}

// entry returns entry i's trace header.
func (s *Store) entry(i int32) *Trace {
	return &s.hdrs[i/hdrsPerSlab][i%hdrsPerSlab]
}

// growIndex doubles the slot array and reinserts every entry.
func (s *Store) growIndex() {
	old := s.slots
	s.slots = make([]slot, 2*len(old))
	s.mask = uint32(len(s.slots) - 1)
	for _, e := range old {
		if e.idx == 0 {
			continue
		}
		i := e.hash & s.mask
		for s.slots[i].idx != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = e
	}
}

// contentEqual reports whether the interned trace t and the borrowed
// trace b describe the same instruction sequence with the same selection
// outcome. Succ is excluded (see intern).
func (t *Trace) contentEqual(b *Trace) bool {
	if len(t.PCs) != len(b.PCs) || t.BrMask != b.BrMask || t.NumBr != b.NumBr ||
		t.Flags != b.Flags || t.EndsInReturn != b.EndsInReturn ||
		t.EndsInIndirect != b.EndsInIndirect || t.EndsInHalt != b.EndsInHalt {
		return false
	}
	for i := range t.PCs {
		if t.PCs[i] != b.PCs[i] || t.Insts[i] != b.Insts[i] {
			return false
		}
	}
	return true
}

// Handle is one member's way into a Store: it interns through the table
// and counts the member's own use of it. It keeps one bit per table
// entry, set once the member has interned that entry.
type Handle struct {
	s     *Store
	seen  []uint64
	stats StoreStats
}

// NewHandle returns a handle on the table with no interns counted.
func (s *Store) NewHandle() *Handle { return &Handle{s: s} }

// Intern is Store.Intern, counted for this member.
func (h *Handle) Intern(b *Trace) *Trace {
	t, i := h.s.intern(b)
	h.stats.Interns++
	w, bit := int(i/64), uint64(1)<<(i%64)
	for w >= len(h.seen) {
		h.seen = append(h.seen, 0)
	}
	if h.seen[w]&bit != 0 {
		h.stats.Hits++
	} else {
		h.seen[w] |= bit
		h.stats.SlabBytes += int64(t.Len()) * instBytes
	}
	return t
}

// Stats returns the member's counters.
func (h *Handle) Stats() StoreStats { return h.stats }
