package trace

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
)

// storeTrace hand-builds a distinct unmanaged trace of n instructions
// starting at start, flags consistent with contents (ALU ops only).
func storeTrace(start uint32, n int) *Trace {
	tr := &Trace{Succ: start + uint32(n*4)}
	for i := 0; i < n; i++ {
		tr.PCs = append(tr.PCs, start+uint32(i*4))
		tr.Insts = append(tr.Insts, isa.Inst{Op: isa.OpAddI, Rd: 1, Ra: 1, Imm: int32(i)})
	}
	cfg := DefaultSelectConfig()
	tr.Flags = cfg.lenClass(n)
	return tr
}

func TestStoreInternBasics(t *testing.T) {
	s := NewStore()
	h := s.NewHandle()
	b := storeTrace(0x1000, 8)
	a := h.Intern(b)
	if a == b {
		t.Fatal("Intern returned the borrowed trace")
	}
	if !a.contentEqual(b) || a.ID() != b.ID() || a.Succ != b.Succ {
		t.Fatalf("interned trace differs: %v vs %v", a, b)
	}

	// Interning identical content, with another successor, is a hit on
	// the same entry, which keeps its first interner's Succ.
	again := storeTrace(0x1000, 8)
	again.Succ = 0
	if a2 := h.Intern(again); a2 != a || a2.Succ != b.Succ {
		t.Fatalf("intern of identical content returned %p (Succ %#x), want %p (Succ %#x)", a2, a2.Succ, a, b.Succ)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	want := StoreStats{Interns: 2, Hits: 1, SlabBytes: 8 * instBytes}
	if st := h.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestStoreContentMismatchSameID(t *testing.T) {
	s := NewStore()
	b1 := storeTrace(0x3000, 4)
	a1 := s.Intern(b1)
	// Same ID (start, no branches), different instruction payload.
	b2 := storeTrace(0x3000, 4)
	b2.Insts[2].Imm = 99
	a2 := s.Intern(b2)
	if a2 == a1 {
		t.Fatal("content-unequal traces interned to the same entry")
	}
	if !a2.contentEqual(b2) || !a1.contentEqual(b1) {
		t.Fatal("an entry does not match its source")
	}
	// Each content finds its own entry: the lookup probes past the
	// same-ID entry whose content differs.
	if s.Intern(b1) != a1 || s.Intern(b2) != a2 || s.Len() != 2 {
		t.Fatalf("re-interning same-ID contents: Len %d, want 2 entries found again", s.Len())
	}
}

// TestHandleStatsArePerMember pins what a handle counts: its own calls,
// and a hit only for a trace it had interned before, even when another
// handle put the trace in the table.
func TestHandleStatsArePerMember(t *testing.T) {
	s := NewStore()
	a, b := s.NewHandle(), s.NewHandle()
	x, y := storeTrace(0x1000, 5), storeTrace(0x2000, 3)
	xa := a.Intern(x)
	if xb := b.Intern(x); xb != xa {
		t.Fatal("two handles on one table got different entries for equal content")
	}
	a.Intern(x)
	b.Intern(y)
	if got, want := a.Stats(), (StoreStats{Interns: 2, Hits: 1, SlabBytes: 5 * instBytes}); got != want {
		t.Fatalf("first handle: %+v, want %+v", got, want)
	}
	if got, want := b.Stats(), (StoreStats{Interns: 2, Hits: 0, SlabBytes: 8 * instBytes}); got != want {
		t.Fatalf("second handle: %+v, want %+v", got, want)
	}
}

// contentKey renders everything contentEqual compares.
func contentKey(tr *Trace) string {
	return fmt.Sprintf("%v|%#v|%d|%d|%d|%v%v%v", tr.PCs, tr.Insts, tr.BrMask, tr.NumBr, tr.Flags,
		tr.EndsInReturn, tr.EndsInIndirect, tr.EndsInHalt)
}

// TestQuickInternMatchesClone pins interned semantics to Clone
// semantics. Over random programs it interns every demanded trace,
// same-ID variants whose content differs, and repeats of earlier ones,
// interleaved. The table must hold one entry per distinct content,
// return one pointer per content, and leave every pointer it returned
// equal to the clone taken when it was interned.
func TestQuickInternMatchesClone(t *testing.T) {
	f := func(seed int64) bool {
		im := randomProgram(seed)
		var dyns []emulator.Dyn
		e := emulator.New(im)
		e.Run(4000, func(d emulator.Dyn) {
			dyns = append(dyns, d)
		})
		traces := segmentDyns(dyns)
		s := NewStore()
		r := rand.New(rand.NewSource(seed ^ 0x17e4))
		var interned, clones []*Trace
		byContent := map[string]*Trace{}
		split := false
		intern := func(b *Trace) {
			a := s.Intern(b)
			k := contentKey(b)
			if prev, ok := byContent[k]; ok && prev != a {
				split = true
			}
			byContent[k] = a
			interned = append(interned, a)
			clones = append(clones, b.Clone())
		}
		for _, tr := range traces {
			intern(tr)
			// A same-ID variant: one ALU instruction's immediate changes,
			// which no field of the ID or the flags sees.
			if k := r.Intn(tr.Len()); r.Intn(3) == 0 && tr.Insts[k].Classify() == isa.ClassALU {
				v := tr.Clone()
				v.Insts[k].Imm ^= 0x55
				intern(v)
			}
			if r.Intn(3) == 0 {
				intern(clones[r.Intn(len(clones))])
			}
		}
		if split || s.Len() != len(byContent) {
			t.Logf("seed %d: %d entries for %d distinct contents (equal content split: %v)",
				seed, s.Len(), len(byContent), split)
			return false
		}
		for i, a := range interned {
			c := clones[i]
			if byContent[contentKey(c)] != a || !a.contentEqual(c) || a.ID() != c.ID() ||
				a.Flags != c.Flags || a.Starts != c.Starts || a.Len() != c.Len() {
				t.Logf("seed %d: trace %d: interned %v != clone %v", seed, i, a, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInternSteadyStateAllocs is the allocation contract bench-smoke
// enforces: re-interning traces a member already holds allocates
// nothing.
func TestInternSteadyStateAllocs(t *testing.T) {
	h := NewStore().NewHandle()
	borrowed := make([]*Trace, 32)
	for i := range borrowed {
		borrowed[i] = storeTrace(uint32(0x4000+i*256), 3+i%14)
		h.Intern(borrowed[i])
	}
	if avg := testing.AllocsPerRun(1000, func() {
		for _, b := range borrowed {
			h.Intern(b)
		}
	}); avg != 0 {
		t.Fatalf("steady-state intern hits allocate %v allocs/round, want 0", avg)
	}
}

// TestStoreGrowthAllocs is the growth half of the allocation contract
// bench-smoke enforces: a fresh table carves its headers, PCs and
// instructions from slabs, so interning 1,024 distinct traces allocates
// per slab and per index doubling, not per trace.
func TestStoreGrowthAllocs(t *testing.T) {
	borrowed := make([]*Trace, 1024)
	for i := range borrowed {
		borrowed[i] = storeTrace(uint32(0x10000+i*64), 1+i%16)
	}
	var s *Store
	avg := testing.AllocsPerRun(10, func() {
		s = NewStore()
		for _, b := range borrowed {
			s.Intern(b)
		}
	})
	if s.Len() != len(borrowed) {
		t.Fatalf("%d entries, want %d distinct", s.Len(), len(borrowed))
	}
	t.Logf("%v allocations for %d distinct traces", avg, len(borrowed))
	if avg > 32 {
		t.Fatalf("interning %d distinct traces into a fresh table makes %v allocations, want at most 32",
			len(borrowed), avg)
	}
}

// TestStoreCloneIsUnmanaged pins that a clone of an entry shares no
// storage with it: changing the clone leaves the entry as it was.
func TestStoreCloneIsUnmanaged(t *testing.T) {
	s := NewStore()
	b := storeTrace(0x8000, 5)
	a := s.Intern(b)
	c := a.Clone()
	c.PCs[0]++
	c.Insts[1].Imm = 77
	if !a.contentEqual(b) {
		t.Fatal("changing a clone changed the interned trace")
	}
	if s.Intern(b) != a || s.Intern(c) == a || s.Len() != 2 {
		t.Fatalf("Len = %d after interning a changed clone, want 2", s.Len())
	}
}

// BenchmarkInternHit measures the steady-state replacement for Clone:
// an intern hit on a trace already in the table.
func BenchmarkInternHit(b *testing.B) {
	h := NewStore().NewHandle()
	borrowed := storeTrace(0x1000, 16)
	h.Intern(borrowed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Intern(borrowed)
	}
}

// BenchmarkInternMiss measures an intern of new content: a miss that
// appends to a growing table, slab carving and index doubling included.
// A fresh table starts every 4,096 interns, so memory stays bounded.
func BenchmarkInternMiss(b *testing.B) {
	borrowed := make([]*Trace, 4096)
	for i := range borrowed {
		borrowed[i] = storeTrace(uint32(0x1000+i*256), 3+i%14)
	}
	var h *Handle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(borrowed)
		if k == 0 {
			h = NewStore().NewHandle()
		}
		h.Intern(borrowed[k])
	}
}

// BenchmarkClone is the old retention path, for comparison.
func BenchmarkClone(b *testing.B) {
	tr := storeTrace(0x1000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tr.Clone()
	}
}

var sink *Trace
