package trace

import (
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
	b := storeTrace(0x1000, 8)
	a := s.Intern(b)
	if a == b {
		t.Fatal("Intern returned the borrowed trace")
	}
	if !a.contentEqual(b) || a.ID() != b.ID() || a.Succ != b.Succ {
		t.Fatalf("interned trace differs: %v vs %v", a, b)
	}
	if got := s.Refs(a); got != 1 {
		t.Fatalf("refs after Intern = %d, want 1", got)
	}
	if s.Live() != 1 {
		t.Fatalf("Live = %d, want 1", s.Live())
	}

	// Interning identical content is a hit on the same trace.
	a2 := s.Intern(storeTrace(0x1000, 8))
	if a2 != a {
		t.Fatal("intern of identical content returned a different trace")
	}
	if got := s.Refs(a); got != 2 {
		t.Fatalf("refs after second Intern = %d, want 2", got)
	}
	st := s.Stats()
	if st.Interns != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 interns 1 hit", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}

	// Retain adds a reference; Releases balance.
	s.Retain(a)
	s.Release(a)
	s.Release(a)
	if s.Live() != 1 {
		t.Fatalf("Live after partial release = %d, want 1", s.Live())
	}
	s.Release(a)
	if s.Live() != 0 {
		t.Fatalf("Live after full release = %d, want 0", s.Live())
	}
	if st := s.Stats(); st.Limbo != 1 {
		t.Fatalf("Limbo = %d, want 1 (deferred reclamation)", st.Limbo)
	}
}

func TestStoreReviveKeepsTrace(t *testing.T) {
	s := NewStore()
	a := s.Intern(storeTrace(0x2000, 6))
	s.Release(a)
	if s.Live() != 0 {
		t.Fatalf("Live = %d, want 0", s.Live())
	}
	// Re-interning identical content revives the limbo trace itself:
	// no copy is made.
	b := s.Intern(storeTrace(0x2000, 6))
	if b != a {
		t.Fatal("revival returned a different trace")
	}
	if st := s.Stats(); st.Revived != 1 || st.Limbo != 0 {
		t.Fatalf("stats = %+v, want 1 revived, 0 limbo", st)
	}
	s.Release(b)
}

func TestStoreContentMismatchSameID(t *testing.T) {
	s := NewStore()
	b1 := storeTrace(0x3000, 4)
	a1 := s.Intern(b1)
	// Same ID (start, no branches, same length would differ — use same
	// length but different instruction payload).
	b2 := storeTrace(0x3000, 4)
	b2.Insts[2].Imm = 99
	a2 := s.Intern(b2)
	if a2 == a1 {
		t.Fatal("content-unequal traces interned to the same storage")
	}
	if !a2.contentEqual(b2) {
		t.Fatal("second intern does not match its source")
	}
	// The old trace stays valid until released.
	if !a1.contentEqual(b1) {
		t.Fatal("first interned trace corrupted by conflicting intern")
	}
	s.Release(a1)
	s.Release(a2)
}

// TestStoreScavengeBoundsSlabs pins the deferred-reclamation contract:
// interning a stream of distinct traces with a bounded live set must
// plateau the slab footprint (limbo storage is recycled before slabs
// grow), and scavenged traces must stop hitting in the index.
func TestStoreScavengeBoundsSlabs(t *testing.T) {
	s := NewStore()
	const live = 64
	ring := make([]*Trace, live)
	for i := 0; i < 100_000; i++ {
		tr := s.Intern(storeTrace(uint32(0x1000+i*64), 3+i%14))
		if old := ring[i%live]; old != nil {
			s.Release(old)
		}
		ring[i%live] = tr
	}
	if s.Live() != live {
		t.Fatalf("Live = %d, want %d", s.Live(), live)
	}
	// One slab holds 256 chunks; 64 live plus recycling limbo should
	// never need more than a couple of slabs.
	if got := s.SlabBytes(); got > 4*chunksPerSlab*int64(chunkBytes) {
		t.Fatalf("slab bytes %d did not plateau (want <= %d)",
			got, 4*chunksPerSlab*int64(chunkBytes))
	}
	if st := s.Stats(); st.Scavenged == 0 {
		t.Fatalf("stats = %+v, want scavenging under slab pressure", st)
	}
	for _, tr := range ring {
		s.Release(tr)
	}
	if s.Live() != 0 {
		t.Fatalf("Live after drain = %d, want 0", s.Live())
	}
}

// TestQuickInternMatchesClone pins interned semantics to Clone
// semantics: over random programs, retaining every demanded trace via
// the store yields bit-identical content to retaining deep copies,
// under interleaved releases.
func TestQuickInternMatchesClone(t *testing.T) {
	f := func(seed int64) bool {
		im := randomProgram(seed)
		var dyns []emulator.Dyn
		e := emulator.New(im)
		e.Run(4000, func(d emulator.Dyn) bool {
			dyns = append(dyns, d)
			return true
		})
		traces := segmentDyns(dyns)
		s := NewStore()
		r := rand.New(rand.NewSource(seed ^ 0x17e4))
		var interned []*Trace
		var clones []*Trace
		for _, tr := range traces {
			interned = append(interned, s.Intern(tr))
			clones = append(clones, tr.Clone())
			// Random release/revive churn: drop a random earlier
			// reference and re-intern it, exercising limbo.
			if len(interned) > 4 && r.Intn(3) == 0 {
				k := r.Intn(len(interned))
				s.Release(interned[k])
				interned[k] = s.Intern(clones[k])
			}
		}
		for i := range interned {
			a, c := interned[i], clones[i]
			if !a.contentEqual(c) || a.ID() != c.ID() ||
				a.Flags != c.Flags || a.Len() != c.Len() {
				t.Logf("seed %d: trace %d: interned %v != clone %v", seed, i, a, c)
				return false
			}
		}
		if int(s.Stats().Interns) < len(traces) {
			return false
		}
		for _, a := range interned {
			s.Release(a)
		}
		return s.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInternSteadyStateAllocs is the allocation contract bench-smoke
// enforces: once a trace's content is resident (live or limbo), an
// intern/release round allocates nothing.
func TestInternSteadyStateAllocs(t *testing.T) {
	s := NewStore()
	borrowed := make([]*Trace, 32)
	held := make([]*Trace, 32)
	for i := range borrowed {
		borrowed[i] = storeTrace(uint32(0x4000+i*256), 3+i%14)
		held[i] = s.Intern(borrowed[i])
	}
	if avg := testing.AllocsPerRun(1000, func() {
		for i, b := range borrowed {
			tr := s.Intern(b) // hit: refcount bump
			s.Release(held[i])
			held[i] = tr
		}
	}); avg != 0 {
		t.Fatalf("steady-state intern hits allocate %v allocs/round, want 0", avg)
	}
	// Release-to-limbo and revive must also be allocation-free.
	if avg := testing.AllocsPerRun(1000, func() {
		for i := range held {
			s.Release(held[i])
		}
		for i, b := range borrowed {
			held[i] = s.Intern(b)
		}
	}); avg != 0 {
		t.Fatalf("steady-state release/revive allocates %v allocs/round, want 0", avg)
	}
}

// TestStoreGrowthAllocs is the growth half of the allocation contract
// bench-smoke enforces: a fresh store carves its headers from slabs
// beside the PCs and instructions, so interning 1,024 distinct traces
// allocates per slab (four of them) and per index doubling, not per
// trace.
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
	if s.Live() != len(borrowed) {
		t.Fatalf("%d live traces, want %d distinct", s.Live(), len(borrowed))
	}
	t.Logf("%v allocations for %d distinct traces", avg, len(borrowed))
	if avg > 32 {
		t.Fatalf("interning %d distinct traces into a fresh store makes %v allocations, want at most 32",
			len(borrowed), avg)
	}
}

func TestStoreMisusePanics(t *testing.T) {
	s := NewStore()
	a := s.Intern(storeTrace(0x5000, 4))

	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	other := NewStore()
	expectPanic("Retain foreign", func() { other.Retain(a) })
	expectPanic("Release foreign", func() { other.Release(a) })
	expectPanic("Retain unmanaged", func() { s.Retain(storeTrace(0x6000, 2)) })
	expectPanic("Release unmanaged", func() { s.Release(storeTrace(0x7000, 2)) })

	s.Release(a)
	expectPanic("Release past zero", func() { s.Release(a) })
	expectPanic("Retain released", func() { s.Retain(a) })
}

func TestStoreCloneIsUnmanaged(t *testing.T) {
	s := NewStore()
	a := s.Intern(storeTrace(0x8000, 5))
	c := a.Clone()
	if s.Refs(c) != 0 {
		t.Fatal("clone of an interned trace reports store refs")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release of a clone did not panic")
			}
		}()
		s.Release(c)
	}()
	if s.Live() != 1 || s.Refs(a) != 1 {
		t.Fatalf("Live = %d, Refs = %d after releasing a clone, want 1, 1", s.Live(), s.Refs(a))
	}
	s.Release(a)
}

// BenchmarkInternHit measures the steady-state replacement for Clone:
// an intern hit on resident content.
func BenchmarkInternHit(b *testing.B) {
	s := NewStore()
	borrowed := storeTrace(0x1000, 16)
	held := s.Intern(borrowed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := s.Intern(borrowed)
		s.Release(held)
		held = tr
	}
}

// BenchmarkInternChurn measures the eviction-heavy case: distinct
// traces cycling through a bounded live set, all storage scavenged.
func BenchmarkInternChurn(b *testing.B) {
	s := NewStore()
	borrowed := make([]*Trace, 512)
	for i := range borrowed {
		borrowed[i] = storeTrace(uint32(0x1000+i*256), 3+i%14)
	}
	const live = 64
	ring := make([]*Trace, live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := s.Intern(borrowed[i%len(borrowed)])
		if old := ring[i%live]; old != nil {
			s.Release(old)
		}
		ring[i%live] = tr
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
