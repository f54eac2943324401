package mem

import (
	"testing"
)

// smallCfg is a 4-set, 2-way modeled L2 (512 bytes of 64-byte lines)
// with 2 MSHRs: hits take 10 cycles, misses 40 more, and fills keep 4
// cycles apart.
func smallCfg() Config {
	return Config{ModelL2: true, SizeBytes: 512, Assoc: 2, MSHRs: 2}
}

// mustNew wires a hierarchy, failing the test on a config error.
func mustNew(t testing.TB, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFixedLevelFlatLatency(t *testing.T) {
	l := mustNew(t, Config{})
	for now := uint64(0); now < 100; now += 37 {
		if done := l.Lookup(IFetch, 0x1000, now); done != now+10 {
			t.Errorf("Lookup(now=%d) = %d, want %d", now, done, now+10)
		}
	}
	l.Lookup(Data, 0x2000, 5)
	l.Lookup(Precon, 0x3000, 5)
	s := l.Stats()
	if s.Accesses != 5 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 5 accesses, 0 misses (perfect level)", s)
	}
	if s.IAccesses != 3 || s.DAccesses != 1 || s.PreconAccesses != 1 {
		t.Errorf("per-port stats = %+v", s)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero (fixed) config invalid: %v", err)
	}
	bad := []Config{
		{ModelL2: true}, // no geometry
		func() Config { c := smallCfg(); c.MSHRs = 0; return c }(),      // no MSHRs
		func() Config { c := smallCfg(); c.SizeBytes = 0; return c }(),  // no capacity
		func() Config { c := smallCfg(); c.Assoc = 0; return c }(),      // no ways
		func() Config { c := smallCfg(); c.SizeBytes = 96; return c }(), // not whole lines
		func() Config { c := smallCfg(); c.Assoc = 3; return c }(),      // 8 lines into 3 ways
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
		if _, err := New(cfg, 10); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
	if _, err := NewModeledL2(Config{}); err == nil {
		t.Error("NewModeledL2 accepted a fixed config")
	}
}

func TestModeledL2HitAndMiss(t *testing.T) {
	l2, err := NewModeledL2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss: full latency.
	if done := l2.Lookup(IFetch, 0x1000, 100); done != 100+10+40 {
		t.Errorf("cold miss done = %d, want 150", done)
	}
	// Hit after the fill completed.
	if done := l2.Lookup(IFetch, 0x1008, 200); done != 200+10 {
		t.Errorf("hit done = %d, want 210", done)
	}
	s := l2.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.IMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestModeledL2MSHRMerge(t *testing.T) {
	l2, err := NewModeledL2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	done1 := l2.Lookup(IFetch, 0x1000, 100) // miss, in flight until 150
	// Same line, different port, while the fill is in flight: merges.
	done2 := l2.Lookup(Precon, 0x1010, 120)
	if done2 != done1 {
		t.Errorf("merged access done = %d, want the outstanding fill %d", done2, done1)
	}
	s := l2.Stats()
	if s.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", s.MSHRMerges)
	}
	if s.Misses != 1 {
		t.Errorf("merge counted as a miss: %+v", s)
	}
}

func TestModeledL2MSHRExhaustionStalls(t *testing.T) {
	l2, err := NewModeledL2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Two misses fill both MSHRs (fills at 100 and 104 by the gap;
	// ready 150 and 154).
	l2.Lookup(Data, 0x1000, 100)
	l2.Lookup(Data, 0x2000, 100)
	if l2.CanAcceptMiss(100) {
		t.Error("CanAcceptMiss with both MSHRs in flight")
	}
	// Third miss at 110 must wait for the earliest MSHR (ready 150),
	// then fill: done = 150 + 10 + 40 = 200.
	done := l2.Lookup(Data, 0x3000, 110)
	if done != 200 {
		t.Errorf("stalled miss done = %d, want 200", done)
	}
	s := l2.Stats()
	if s.MSHRStallCycles != 40 {
		t.Errorf("MSHRStallCycles = %d, want 40 (110 -> 150)", s.MSHRStallCycles)
	}
	if !l2.CanAcceptMiss(155) {
		t.Error("CanAcceptMiss false after fills retired")
	}
}

func TestModeledL2FillBandwidth(t *testing.T) {
	l2, err := NewModeledL2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back misses in the same cycle: the second fill waits out
	// the 4-cycle gap.
	d1 := l2.Lookup(IFetch, 0x1000, 100)
	d2 := l2.Lookup(IFetch, 0x2000, 100)
	if d1 != 150 {
		t.Errorf("first miss done = %d, want 150", d1)
	}
	if d2 != 154 {
		t.Errorf("second miss done = %d, want 154 (fill gap)", d2)
	}
	if s := l2.Stats(); s.FillStallCycles != 4 {
		t.Errorf("FillStallCycles = %d, want 4", s.FillStallCycles)
	}
}

func TestModeledL2Evictions(t *testing.T) {
	l2, err := NewModeledL2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Three lines conflicting in set 0 of the 4-set, 2-way store.
	now := uint64(0)
	for _, a := range []uint32{0x0000, 0x0100, 0x0200} {
		l2.Lookup(Data, a, now)
		now += 1000 // let fills retire between misses
	}
	if s := l2.Stats(); s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
}

func TestModeledL2NonMonotonicNow(t *testing.T) {
	// The three consumers run on loosely coupled clocks: a lookup may
	// arrive with a smaller now than its predecessor. Absolute
	// ready-cycle state must keep results sane (done >= now).
	l2, err := NewModeledL2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	l2.Lookup(Data, 0x1000, 1000)
	if done := l2.Lookup(IFetch, 0x2000, 50); done < 50 {
		t.Errorf("done %d before now 50", done)
	}
	if done := l2.Lookup(IFetch, 0x2020, 60); done < 60 {
		t.Errorf("hit done %d before now 60", done)
	}
}

func TestHierarchyFixedWiring(t *testing.T) {
	h := mustNew(t, Config{})
	if got := h.Latency(Data, 0x1000, 77); got != 10 {
		t.Errorf("fixed Latency = %d, want 10", got)
	}
	if !h.AdmitPrecon(0) {
		t.Error("fixed level refused a precon miss")
	}
	if s := h.Stats(); s.Accesses != 1 || s.Misses != 0 || s.PreconDenied != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHierarchyModeledWiring(t *testing.T) {
	h := mustNew(t, smallCfg())
	// A cold access misses the modeled level: hit plus miss latency.
	if got := h.Latency(Data, 0x1000, 100); got != 10+40 {
		t.Errorf("cold modeled Latency = %d, want 50", got)
	}
	// Exhaust the MSHRs, then a precon miss must be refused and counted.
	h.Lookup(Data, 0x2000, 100)
	if h.AdmitPrecon(100) {
		t.Error("AdmitPrecon with all MSHRs busy")
	}
	if s := h.Stats(); s.PreconDenied != 1 {
		t.Errorf("PreconDenied = %d, want 1", s.PreconDenied)
	}
	if h.AdmitPrecon(1000) != true {
		t.Error("AdmitPrecon false after fills retired")
	}
}

// TestLevelContract runs both wirings of the hierarchy: done never
// precedes now, and stats ledgers stay internally consistent (per-port
// counts sum to totals).
func TestLevelContract(t *testing.T) {
	for _, cfg := range []Config{{}, smallCfg()} {
		lvl := mustNew(t, cfg)
		var now uint64
		for i := 0; i < 300; i++ {
			p := Port(i % 3)
			addr := uint32((i * 2654435761) & 0xFFFF)
			done := lvl.Lookup(p, addr, now)
			if done < now {
				t.Fatalf("%+v: done %d < now %d", cfg, done, now)
			}
			now += uint64(i % 7)
		}
		s := lvl.Stats()
		if s.IAccesses+s.DAccesses+s.PreconAccesses != s.Accesses {
			t.Errorf("%+v: port accesses do not sum: %+v", cfg, s)
		}
		if s.IMisses+s.DMisses+s.PreconMisses != s.Misses {
			t.Errorf("%+v: port misses do not sum: %+v", cfg, s)
		}
		if s.Misses > s.Accesses {
			t.Errorf("%+v: misses exceed accesses: %+v", cfg, s)
		}
	}
}

func TestLevelStatsRates(t *testing.T) {
	var s LevelStats
	if s.MissRate() != 0 || s.PreconShare() != 0 {
		t.Error("zero stats rates nonzero")
	}
	s = LevelStats{Accesses: 8, Misses: 2, PreconAccesses: 4}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %f", s.MissRate())
	}
	if s.PreconShare() != 0.5 {
		t.Errorf("PreconShare = %f", s.PreconShare())
	}
}

// BenchmarkFixedLookup pins the default wiring's hot-path cost: the
// fixed level's lookup the backend and slow path pay per L1 miss.
func BenchmarkFixedLookup(b *testing.B) {
	h := mustNew(b, Config{})
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Lookup(Data, uint32(i), uint64(i))
	}
	_ = sink
}

func BenchmarkModeledLookup(b *testing.B) {
	h := mustNew(b, DefaultModeledL2())
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Lookup(Data, uint32(i*64)&0xFFFFF, uint64(i))
	}
	_ = sink
}
