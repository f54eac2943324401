package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newCache builds a cache, failing the test on a config error.
func newCache(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	t.Helper()
	// 4 sets x 2 ways x 64-byte lines = 512 bytes.
	return newCache(t, Config{SizeBytes: 512, LineBytes: 64, Assoc: 2})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: -1, LineBytes: 64, Assoc: 1},
		{SizeBytes: 512, LineBytes: 48, Assoc: 2},    // line not pow2
		{SizeBytes: 500, LineBytes: 64, Assoc: 2},    // size not multiple
		{SizeBytes: 512, LineBytes: 64, Assoc: 3},    // lines not divisible
		{SizeBytes: 64 * 6, LineBytes: 64, Assoc: 2}, // sets not pow2
		{SizeBytes: 64, LineBytes: 64, Assoc: 2},     // zero sets
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded", cfg)
		}
	}
	good := Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", good, err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1004) {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 2-way, 4 sets, 64B lines: set stride is 256B
	// Three lines mapping to the same set (set 0): 0x0000, 0x0100, 0x0200.
	c.Access(0x0000)
	c.Access(0x0100)
	c.Access(0x0000) // make 0x0100 the LRU way
	c.Access(0x0200) // evicts 0x0100
	if !c.Probe(0x0000) {
		t.Error("0x0000 evicted; should have been MRU")
	}
	if c.Probe(0x0100) {
		t.Error("0x0100 still resident; should have been evicted")
	}
	if !c.Probe(0x0200) {
		t.Error("0x0200 not resident")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Access(0x0000)
	c.Access(0x0100)
	// Probing 0x0000 must NOT refresh it.
	for i := 0; i < 10; i++ {
		c.Probe(0x0000)
	}
	c.Access(0x0200) // should evict 0x0000 (older by access order)
	if c.Probe(0x0000) {
		t.Error("probe refreshed LRU state")
	}
	s := c.Stats()
	if s.Accesses != 3 {
		t.Errorf("probes counted as accesses: %+v", s)
	}
}

func TestTouchRefreshesLRU(t *testing.T) {
	c := small(t)
	c.Access(0x0000)
	c.Access(0x0100)
	c.Touch(0x0000) // now 0x0100 is LRU
	c.Access(0x0200)
	if !c.Probe(0x0000) {
		t.Error("touched line evicted")
	}
	if c.Probe(0x0100) {
		t.Error("untouched line survived")
	}
	if got := c.Stats().Accesses; got != 3 {
		t.Errorf("touch counted as access: %d", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Access(0x1000)
	if !c.Invalidate(0x1000) {
		t.Error("Invalidate on resident line returned false")
	}
	if c.Probe(0x1000) {
		t.Error("line still resident")
	}
	if c.Invalidate(0x1000) {
		t.Error("Invalidate on absent line returned true")
	}
}

func TestReset(t *testing.T) {
	c := small(t)
	c.Access(0x1000)
	c.Reset()
	if c.Probe(0x1000) {
		t.Error("line survived Reset")
	}
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("stats after Reset = %+v", s)
	}
}

func TestLineAddr(t *testing.T) {
	c := small(t)
	if got := c.LineAddr(0x10ff); got != 0x10c0 {
		t.Errorf("LineAddr = 0x%x", got)
	}
	if got := c.LineAddr(0x1000); got != 0x1000 {
		t.Errorf("LineAddr aligned = 0x%x", got)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %f", s.MissRate())
	}
}

// TestQuickWorkingSetFits: any access sequence confined to at most
// Assoc distinct lines per set never misses after first touch.
func TestQuickWorkingSetFits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newCache(t, Config{SizeBytes: 512, LineBytes: 64, Assoc: 2})
		// Two lines in set 0, two in set 1: all fit simultaneously.
		lines := []uint32{0x0000, 0x0100, 0x0040, 0x0140}
		for _, a := range lines {
			c.Access(a)
		}
		for i := 0; i < 200; i++ {
			a := lines[r.Intn(len(lines))] + uint32(r.Intn(64))
			if !c.Access(a) {
				t.Logf("seed %d: unexpected miss at 0x%x", seed, a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickStatsConsistent: misses never exceed accesses, and a
// miss-then-probe always finds the line resident (fill on miss).
func TestQuickStatsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := newCache(t, Config{SizeBytes: 1024, LineBytes: 32, Assoc: 4})
		for i := 0; i < 500; i++ {
			a := uint32(r.Intn(1 << 14))
			c.Access(a)
			if !c.Probe(a) {
				t.Logf("seed %d: line 0x%x absent right after access", seed, a)
				return false
			}
			s := c.Stats()
			if s.Misses > s.Accesses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEvictions(t *testing.T) {
	c := small(t) // 2-way set 0: 0x0000, 0x0100, 0x0200 conflict
	c.Access(0x0000)
	c.Access(0x0100)
	if got := c.Stats().Evictions; got != 0 {
		t.Errorf("cold fills counted as evictions: %d", got)
	}
	c.Access(0x0200) // displaces the LRU way (0x0000)
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
	c.Access(0x0200) // hit: no eviction
	c.Access(0x0300) // displaces again
	s := c.Stats()
	if s.Evictions != 2 || s.Misses != 4 {
		t.Errorf("stats = %+v, want 2 evictions / 4 misses", s)
	}
}

func TestEvictionsSkipInvalidVictims(t *testing.T) {
	c := small(t)
	c.Access(0x0000)
	c.Access(0x0100)
	c.Invalidate(0x0000)
	c.Access(0x0200) // fills the invalidated way: no valid victim
	if got := c.Stats().Evictions; got != 0 {
		t.Errorf("fill of invalidated way counted as eviction: %d", got)
	}
}

func TestProbeAfterInvalidate(t *testing.T) {
	c := small(t)
	c.Access(0x0000)
	c.Access(0x0100) // same set, other way
	c.Invalidate(0x0000)
	if c.Probe(0x0000) {
		t.Error("invalidated line still probes resident")
	}
	if !c.Probe(0x0100) {
		t.Error("Invalidate dropped the wrong way")
	}
	// Re-accessing the invalidated line must miss and refill.
	if c.Access(0x0000) {
		t.Error("access after invalidate hit")
	}
	if !c.Probe(0x0000) {
		t.Error("refill after invalidate did not stick")
	}
}

// BenchmarkCacheAccess is the setAndTag hot-path microbench: a mixed
// hit/miss stream over a working set a little larger than the cache,
// the access pattern of every simulated fetch. The set-index shift is
// cached in the Cache (not recomputed per access); this benchmark is
// the no-regression proof.
func BenchmarkCacheAccess(b *testing.B) {
	c := newCache(b, Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*64) & 0x1FFFF) // 128 KiB working set: ~50% miss
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := newCache(b, Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4})
	c.Access(0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000)
	}
}

func BenchmarkAccessMissHeavy(b *testing.B) {
	c := newCache(b, Config{SizeBytes: 4 * 1024, LineBytes: 64, Assoc: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*64) & 0xFFFFF)
	}
}

func TestWarmFillsWithoutCounting(t *testing.T) {
	c := small(t) // 2-way, 4 sets, 64B lines: set stride is 256B
	if c.Warm(0x0000) {
		t.Error("cold warm reported a hit")
	}
	if !c.Probe(0x0000) {
		t.Error("warm did not fill the line")
	}
	if !c.Warm(0x0000) {
		t.Error("warm of a resident line reported a miss")
	}
	// Warm participates in LRU exactly like Access: 0x0100 becomes the
	// LRU way after re-warming 0x0000, so 0x0200 evicts it.
	c.Warm(0x0100)
	c.Warm(0x0000)
	c.Warm(0x0200)
	if c.Probe(0x0100) {
		t.Error("warm did not maintain LRU order: 0x0100 should be evicted")
	}
	if !c.Probe(0x0000) || !c.Probe(0x0200) {
		t.Error("warm evicted the wrong way")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("warm moved statistics: %+v", s)
	}
}
