package tracecache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracepre/internal/isa"
	"tracepre/internal/trace"
)

// mkTrace builds a minimal borrowed trace whose ID is (start, 0, 0).
func mkTrace(start uint32) *trace.Trace {
	return &trace.Trace{
		PCs:   []uint32{start},
		Insts: []isa.Inst{{Op: isa.OpAdd, Rd: 1, Ra: 1, Rb: 1}},
		Succ:  start + 4,
	}
}

// newTC, newBuffers and newAdaptive build a container, failing the
// test on a config error.
func newTC(t testing.TB, cfg Config) *TraceCache {
	t.Helper()
	tc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func newBuffers(t testing.TB, cfg Config) *Buffers {
	t.Helper()
	b, err := NewBuffers(BufferConfig{Entries: cfg.Entries, Assoc: cfg.Assoc})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newAdaptive(t testing.TB, cfg Config) *Adaptive {
	t.Helper()
	a, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Entries: -2, Assoc: 2},
		{Entries: 10, Assoc: 4}, // not divisible
		{Entries: 24, Assoc: 2}, // sets not pow2
		{Entries: 2, Assoc: 4},  // zero sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) succeeded", c)
		}
		if _, err := NewBuffers(BufferConfig{Entries: c.Entries, Assoc: c.Assoc}); err == nil {
			t.Errorf("NewBuffers(%+v) succeeded", c)
		}
	}
	if err := (Config{Entries: 512, Assoc: 2}).Validate(); err != nil {
		t.Errorf("good config: %v", err)
	}
}

func TestTraceCacheInsertLookup(t *testing.T) {
	tc := newTC(t, Config{Entries: 8, Assoc: 2})
	tr := mkTrace(0x1000)
	if _, hit := tc.Lookup(tr.ID()); hit {
		t.Error("cold lookup hit")
	}
	tc.Insert(tr)
	got, hit := tc.Lookup(tr.ID())
	if !hit || got != tr {
		t.Error("lookup after insert missed")
	}
	s := tc.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTraceCacheContainsNoPerturb(t *testing.T) {
	tc := newTC(t, Config{Entries: 8, Assoc: 2})
	tr := mkTrace(0x1000)
	tc.Insert(tr)
	if !tc.Contains(tr.ID()) {
		t.Error("Contains = false")
	}
	if tc.Contains(mkTrace(0x2000).ID()) {
		t.Error("Contains = true for absent trace")
	}
	if s := tc.Stats(); s.Lookups != 0 {
		t.Error("Contains counted as lookup")
	}
}

func TestTraceCacheDuplicateInsert(t *testing.T) {
	tc := newTC(t, Config{Entries: 8, Assoc: 2})
	a := mkTrace(0x1000)
	b := mkTrace(0x1000) // same ID: a different object
	tc.Insert(a)
	tc.Insert(b)
	got, _ := tc.Lookup(a.ID())
	if got != b {
		t.Error("duplicate insert did not replace the object")
	}
	// Set must not hold two copies: inserting two more same-set traces
	// evicts at most the older entries, never leaves duplicates.
}

// sameSetTraces finds n traces mapping to the same set of a.
func sameSetTraces(a *setArray, n int) []*trace.Trace {
	want := mkTrace(0x1000)
	set0 := want.ID().Hash() & a.setMask
	out := []*trace.Trace{want}
	for start := uint32(0x2000); len(out) < n; start += 4 {
		tr := mkTrace(start)
		if tr.ID().Hash()&a.setMask == set0 {
			out = append(out, tr)
		}
	}
	return out
}

func TestTraceCacheLRUEviction(t *testing.T) {
	tc := newTC(t, Config{Entries: 8, Assoc: 2})
	ts := sameSetTraces(&tc.setArray, 3)
	tc.Insert(ts[0])
	tc.Insert(ts[1])
	tc.Lookup(ts[0].ID()) // refresh ts[0]
	tc.Insert(ts[2])      // must evict ts[1]
	if !tc.Contains(ts[0].ID()) {
		t.Error("MRU entry evicted")
	}
	if tc.Contains(ts[1].ID()) {
		t.Error("LRU entry survived")
	}
	if !tc.Contains(ts[2].ID()) {
		t.Error("new entry absent")
	}
}

func TestBuffersTakeConsumes(t *testing.T) {
	b := newBuffers(t, Config{Entries: 8, Assoc: 2})
	tr := mkTrace(0x1000)
	if !b.Insert(tr, 1) {
		t.Fatal("insert refused")
	}
	if !b.Contains(tr.ID()) {
		t.Error("Contains = false after insert")
	}
	got, hit := b.Take(tr.ID())
	if !hit || got != tr {
		t.Fatal("Take missed")
	}
	if b.Contains(tr.ID()) {
		t.Error("entry survived Take")
	}
	if _, hit := b.Take(tr.ID()); hit {
		t.Error("second Take hit")
	}
	if s := b.Stats(); s.Lookups != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 lookups and 1 hit", s)
	}
}

// TestBuffersRegionPriority: a newer region displaces the oldest region's
// trace; an equal-or-older region is refused when the set is full of
// same-or-newer entries.
func TestBuffersRegionPriority(t *testing.T) {
	b := newBuffers(t, Config{Entries: 8, Assoc: 2})
	ts := sameSetTraces(&b.setArray, 4)

	if !b.Insert(ts[0], 5) || !b.Insert(ts[1], 6) {
		t.Fatal("initial inserts refused")
	}
	// Same region as newest: set full, candidates are region 5 only.
	if !b.Insert(ts[2], 6) {
		t.Fatal("insert from region 6 refused; should displace region 5")
	}
	if b.Contains(ts[0].ID()) {
		t.Error("older region entry survived")
	}
	// Now both ways hold region 6. A region-6 trace must be refused
	// (never displace own region), as must an older region.
	if b.Insert(ts[3], 6) {
		t.Error("insert displaced a same-region trace")
	}
	if b.Insert(ts[3], 4) {
		t.Error("insert from older region displaced newer region")
	}
	if b.Stats().Rejected != 2 {
		t.Errorf("rejected = %d", b.Stats().Rejected)
	}
	// A newer region always wins.
	if !b.Insert(ts[3], 7) {
		t.Error("newer region refused")
	}
}

// TestBuffersPlainLRU: under the plain-LRU ablation a same-region
// insert into a full set displaces the least recently inserted trace
// instead of being refused.
func TestBuffersPlainLRU(t *testing.T) {
	b, err := NewBuffers(BufferConfig{Entries: 8, Assoc: 2, PlainLRU: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := sameSetTraces(&b.setArray, 3)
	for _, tr := range ts {
		if !b.Insert(tr, 6) {
			t.Fatalf("plain-LRU insert of %#x refused", tr.ID().Start)
		}
	}
	if b.Contains(ts[0].ID()) || !b.Contains(ts[1].ID()) || !b.Contains(ts[2].ID()) {
		t.Error("plain LRU did not displace the oldest insert")
	}
	if b.Stats().Rejected != 0 {
		t.Errorf("rejected = %d, want 0", b.Stats().Rejected)
	}
}

func TestBuffersDuplicateInsertRefreshes(t *testing.T) {
	b := newBuffers(t, Config{Entries: 8, Assoc: 2})
	tr := mkTrace(0x1000)
	b.Insert(tr, 1)
	tr2 := mkTrace(0x1000) // same ID: a different object
	if !b.Insert(tr2, 2) {
		t.Fatal("duplicate insert refused")
	}
	if b.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", b.Occupancy())
	}
	got, _ := b.Take(tr.ID())
	if got != tr2 {
		t.Error("duplicate insert did not refresh object")
	}
}

func TestBuffersOccupancyAndReset(t *testing.T) {
	b := newBuffers(t, Config{Entries: 8, Assoc: 2})
	for i := uint32(0); i < 4; i++ {
		b.Insert(mkTrace(0x1000+i*4), uint64(i))
	}
	n := b.Occupancy()
	if n == 0 || n > 4 {
		t.Fatalf("occupancy %d after 4 inserts", n)
	}
	// Take consumes its entry.
	if _, hit := b.Take(mkTrace(0x1000).ID()); hit && b.Occupancy() != n-1 {
		t.Errorf("occupancy %d after a Take hit, want %d", b.Occupancy(), n-1)
	}
}

// TestQuickBuffersNeverDisplaceNewer: under random inserts, no successful
// insert ever removes an entry from a region newer than the inserted one.
func TestQuickBuffersNeverDisplaceNewer(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := newBuffers(t, Config{Entries: 16, Assoc: 2})
		live := make(map[trace.ID]uint64) // resident id -> region
		for i := 0; i < 300; i++ {
			start := uint32(0x1000 + r.Intn(64)*4)
			region := uint64(r.Intn(8))
			tr := mkTrace(start)
			before := make(map[trace.ID]uint64, len(live))
			for k, v := range live {
				before[k] = v
			}
			if b.Insert(tr, region) {
				live[tr.ID()] = region
				// Anything that vanished must have been from an
				// older region (or the same ID being refreshed).
				for k, v := range before {
					if k != tr.ID() && !b.Contains(k) {
						delete(live, k)
						if v >= region {
							t.Logf("seed %d: region %d displaced region %d", seed, region, v)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTraceCacheLookup(b *testing.B) {
	tc := newTC(b, Config{Entries: 512, Assoc: 2})
	ids := make([]trace.ID, 256)
	for i := range ids {
		tr := mkTrace(uint32(0x1000 + i*4))
		tc.Insert(tr)
		ids[i] = tr.ID()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Lookup(ids[i&255])
	}
}

func TestTraceCachePeek(t *testing.T) {
	tc := newTC(t, Config{Entries: 8, Assoc: 2})
	tr := mkTrace(0x1000)
	if _, ok := tc.Peek(tr.ID()); ok {
		t.Error("Peek hit on empty cache")
	}
	tc.Insert(tr)
	got, ok := tc.Peek(tr.ID())
	if !ok || got != tr {
		t.Error("Peek missed resident trace")
	}
	// Peek must not perturb LRU: insert two same-set traces, peek the
	// older repeatedly, insert a third; the peeked one must still be
	// the eviction victim.
	tc2 := newTC(t, Config{Entries: 8, Assoc: 2})
	ts := sameSetTraces(&tc2.setArray, 3)
	tc2.Insert(ts[0])
	tc2.Insert(ts[1])
	for i := 0; i < 5; i++ {
		tc2.Peek(ts[0].ID())
	}
	tc2.Insert(ts[2])
	if tc2.Contains(ts[0].ID()) {
		t.Error("Peek refreshed LRU state")
	}
	if s := tc.Stats(); s.Lookups != 0 {
		t.Error("Peek counted as lookup")
	}
}

func TestAdaptivePeek(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 8, Assoc: 2})
	tr := mkTrace(0x1000)
	a.InsertPrecon(tr, 1)
	if _, ok := a.Peek(tr.ID()); ok {
		t.Error("Peek saw a buffer-role entry")
	}
	a.Take(tr.ID())
	if got, ok := a.Peek(tr.ID()); !ok || got != tr {
		t.Error("Peek missed a trace-cache-role entry")
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := Config{Entries: 8, Assoc: 2}
	if newTC(t, cfg).Config() != cfg {
		t.Error("TraceCache.Config mismatch")
	}
	if newBuffers(t, cfg).Config() != cfg {
		t.Error("Buffers.Config mismatch")
	}
}
