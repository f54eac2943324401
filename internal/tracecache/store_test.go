package tracecache

import (
	"math/rand"
	"testing"

	"tracepre/internal/trace"
)

// checkLive asserts the refcount invariant: every reference the store
// counts as live is exactly one resident line across the containers
// built over it.
func checkLive(t *testing.T, s *trace.Store, want int, what string) {
	t.Helper()
	if got := s.Live(); got != want {
		t.Fatalf("%s: store.Live() = %d, want %d (resident lines)", what, got, want)
	}
}

// TestTraceCacheStoreLifecycle drives inserts, refreshes, evictions and
// a drain through a TraceCache, checking after every step that live
// interned traces equal cache occupancy.
func TestTraceCacheStoreLifecycle(t *testing.T) {
	tc := newTC(t, Config{Entries: 8, Assoc: 2})
	s := tc.store

	// Fill well past capacity: evictions must release their victims.
	for i := 0; i < 64; i++ {
		tc.Insert(s.Intern(mkTrace(uint32(0x1000 + i*64))))
		checkLive(t, s, tc.Occupancy(), "insert")
	}
	if tc.Occupancy() != 8 {
		t.Fatalf("occupancy = %d, want full (8)", tc.Occupancy())
	}

	// Re-inserting a resident trace (same ID) refreshes in place and
	// releases the displaced reference.
	tr := s.Intern(mkTrace(0x1000 + 63*64))
	tc.Insert(tr)
	checkLive(t, s, tc.Occupancy(), "refresh")
	if s.Refs(tr) != 1 {
		t.Fatalf("refs after refresh = %d, want 1", s.Refs(tr))
	}

	tc.Drain()
	if tc.Occupancy() != 0 {
		t.Fatalf("occupancy after drain = %d", tc.Occupancy())
	}
	checkLive(t, s, 0, "drain")
}

// TestBuffersStoreLifecycle drives the buffer protocol — region-tagged
// inserts, rejections, Take transfers, drain — under the same
// invariant.
func TestBuffersStoreLifecycle(t *testing.T) {
	b := newBuffers(t, Config{Entries: 4, Assoc: 2})
	s := b.store

	// Region 1 fills the buffers.
	ids := make([]trace.ID, 0, 8)
	for i := 0; i < 8; i++ {
		tr := s.Intern(mkTrace(uint32(0x2000 + i*64)))
		ids = append(ids, tr.ID())
		b.Insert(tr, 1)
		checkLive(t, s, b.Occupancy(), "insert r1")
	}

	// Same-region inserts into full sets are refused and must release
	// the refused reference (region priority never evicts same-region).
	before := s.Live()
	rej := s.Intern(mkTrace(0x9000))
	if b.Insert(rej, 1) {
		// Some set had a free way; that is fine — undo expectations.
		before++
	}
	checkLive(t, s, before, "rejection")

	// A newer region displaces older lines, releasing victims.
	for i := 0; i < 8; i++ {
		b.Insert(s.Intern(mkTrace(uint32(0x3000+i*64))), 2)
		checkLive(t, s, b.Occupancy(), "insert r2")
	}

	// Take transfers the reference to the caller: occupancy drops but
	// the trace stays live until the caller releases it.
	var taken *trace.Trace
	for _, id := range ids {
		if tr, ok := b.Take(id); ok {
			taken = tr
			break
		}
	}
	if taken != nil {
		checkLive(t, s, b.Occupancy()+1, "take")
		s.Release(taken)
	}
	checkLive(t, s, b.Occupancy(), "after take release")

	b.Drain()
	checkLive(t, s, 0, "drain")
}

// TestAdaptiveStoreLifecycle drives both roles of the adaptive store:
// buffer-role inserts, in-place promotion (Take), trace-cache inserts,
// the already-resident early return, and drain.
func TestAdaptiveStoreLifecycle(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	s := a.store

	occ := func() int { tc, pb := a.Occupancy(); return tc + pb }

	r := rand.New(rand.NewSource(7))
	region := uint64(1)
	for i := 0; i < 400; i++ {
		start := uint32(0x1000 + r.Intn(64)*64)
		switch r.Intn(3) {
		case 0:
			a.Insert(s.Intern(mkTrace(start)))
		case 1:
			region++
			a.InsertPrecon(s.Intern(mkTrace(start)), region)
		case 2:
			// Take flips the role in place; the reference stays with
			// the entry, so residency is unchanged.
			a.Take(trace.ID{Start: start})
		}
		checkLive(t, s, occ(), "adaptive op")
	}

	// A buffer insert whose ID is already resident in trace-cache role
	// must release the caller's reference ("already cached").
	tr := s.Intern(mkTrace(0x100))
	a.Insert(tr)
	live := s.Live()
	dup := s.Intern(mkTrace(0x100))
	if !a.InsertPrecon(dup, region+1) {
		t.Fatal("InsertPrecon of a cached ID returned false")
	}
	checkLive(t, s, live, "insert-precon of cached ID")
	if s.Refs(tr) != 1 {
		t.Fatalf("refs = %d, want 1 (duplicate reference released)", s.Refs(tr))
	}

	a.Drain()
	if n := occ(); n != 0 {
		t.Fatalf("occupancy after drain = %d", n)
	}
	checkLive(t, s, 0, "drain")
}

// TestQuickMixedStoreChurn hammers a TraceCache and Buffers sharing one
// store with random operations, then drains and requires zero live
// traces — the leak invariant under arbitrary interleavings.
func TestQuickMixedStoreChurn(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tc := newTC(t, Config{Entries: 16, Assoc: 2})
		s := tc.store
		b, err := NewBuffers(Config{Entries: 8, Assoc: 2}, s)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		region := uint64(0)
		for i := 0; i < 2000; i++ {
			start := uint32(0x1000 + r.Intn(128)*64)
			switch r.Intn(4) {
			case 0:
				tc.Insert(s.Intern(mkTrace(start)))
			case 1:
				region++
				b.Insert(s.Intern(mkTrace(start)), region)
			case 2:
				// The frontend protocol: a buffer hit moves the trace
				// into the trace cache.
				if tr, ok := b.Take(trace.ID{Start: start}); ok {
					tc.Insert(tr)
				}
			case 3:
				tc.Lookup(trace.ID{Start: start})
			}
		}
		tc.Drain()
		b.Drain()
		if s.Live() != 0 {
			t.Fatalf("seed %d: %d live traces after drain", seed, s.Live())
		}
	}
}
