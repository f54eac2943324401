package frontend

import (
	"testing"

	"tracepre/internal/cache"
	"tracepre/internal/mem"
	"tracepre/internal/precon"
)

// testPort builds the frontend's slow-path port the way New does: the
// paper's i-cache behind a fixed-latency L2.
func testPort(t *testing.T) *precon.SlowPathPort {
	t.Helper()
	ic, err := cache.New(cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.New(mem.Config{}, testL2Lat)
	if err != nil {
		t.Fatal(err)
	}
	return precon.NewSlowPathPort(ic, h)
}

// TestPortDemandAlwaysWins: demand accesses are never denied, no matter
// how many arrive and regardless of any engine budget state.
func TestPortDemandAlwaysWins(t *testing.T) {
	p := testPort(t)
	for i := 0; i < 100; i++ {
		p.DemandAccess(uint32(i*64), 0) // never a grant/deny return: always served
	}
	if ps := p.Stats(); ps.DemandAccesses != 100 {
		t.Errorf("DemandAccesses = %d, want 100", ps.DemandAccesses)
	}
	// Demand traffic grants the engine nothing: the very next engine
	// fetch (no BeginUnit yet) is denied and counted as a stall.
	if granted, _ := p.FetchLine(0); granted {
		t.Error("engine fetch granted without an idle-cycle grant")
	}
	if ps := p.Stats(); ps.PreconStalls != 1 || ps.PreconFetches != 0 {
		t.Errorf("stalls/fetches = %d/%d, want 1/0", ps.PreconStalls, ps.PreconFetches)
	}
}

// TestPortChargeDemandCreatesNoBudget: cycles the demand path held the
// port busy never become engine budget — the engine steals only cycles
// explicitly granted as idle via BeginUnit.
func TestPortChargeDemandCreatesNoBudget(t *testing.T) {
	p := testPort(t)
	p.ChargeDemand(50)
	if granted, _ := p.FetchLine(0); granted {
		t.Error("demand busy cycles became engine budget")
	}
	if ps := p.Stats(); ps.DemandBusyCycles != 50 {
		t.Errorf("DemandBusyCycles = %d, want 50", ps.DemandBusyCycles)
	}
}

// TestPortOneFetchPerIdleCycle: each BeginUnit grants exactly one line
// fetch; the second request in the same unit stalls, and a new unit
// re-arms the budget.
func TestPortOneFetchPerIdleCycle(t *testing.T) {
	p := testPort(t)
	p.BeginUnit()
	if granted, miss := p.FetchLine(0); !granted || !miss {
		t.Errorf("first fetch granted/miss = %v/%v, want true/true (cold cache)", granted, miss)
	}
	if granted, _ := p.FetchLine(64); granted {
		t.Error("second fetch in one unit granted")
	}
	p.BeginUnit()
	if granted, _ := p.FetchLine(64); !granted {
		t.Error("fetch after new unit denied")
	}
	ps := p.Stats()
	if ps.IdleCycles != 2 || ps.PreconFetches != 2 || ps.PreconStalls != 1 {
		t.Errorf("idle/fetches/stalls = %d/%d/%d, want 2/2/1",
			ps.IdleCycles, ps.PreconFetches, ps.PreconStalls)
	}
	if ps.PreconMisses != 2 {
		t.Errorf("PreconMisses = %d, want 2 (both lines cold)", ps.PreconMisses)
	}
}

// TestPortSharedCacheVisibility: both sides access the same cache — a
// line the engine fetched is warm for demand, and vice versa.
func TestPortSharedCacheVisibility(t *testing.T) {
	p := testPort(t)
	p.BeginUnit()
	p.FetchLine(0) // engine warms line 0
	if hit, _ := p.DemandAccess(0, 0); !hit {
		t.Error("demand missed a line the engine fetched")
	}
	p.DemandAccess(128, 0) // demand warms line 128
	p.BeginUnit()
	if _, miss := p.FetchLine(128); miss {
		t.Error("engine missed a line demand fetched")
	}
}

// TestPortContention: the contention metric is stalls over requests.
func TestPortContention(t *testing.T) {
	p := testPort(t)
	if c := p.Stats().Contention(); c != 0 {
		t.Errorf("idle port contention = %v, want 0", c)
	}
	p.BeginUnit()
	p.FetchLine(0)  // granted
	p.FetchLine(64) // stalled
	p.FetchLine(64) // stalled
	if c := p.Stats().Contention(); c < 0.66 || c > 0.67 {
		t.Errorf("contention = %v, want 2/3", c)
	}
}
