package frontend

import (
	"testing"

	"tracepre/internal/isa"
	"tracepre/internal/program"
	"tracepre/internal/tracecache"
)

// supplyRig builds a split-design frontend with preconstruction wired
// around a straight-line image.
func supplyRig(t *testing.T) *Frontend {
	t.Helper()
	b := program.NewBuilder(0x1000)
	for i := 0; i < 64; i++ {
		b.ALUI(isa.OpAddI, 1, 1, 1)
	}
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.Buffers = tracecache.BufferConfig{Entries: 64, Assoc: 2}
	return newFrontend(t, im, cfg)
}

// TestSupplyProbeOrderAndPromotion: a miss builds through the slow path
// and fills the primary; a repeat demand hits supplier 0; a trace
// planted in the buffers hits supplier 1 and is promoted into the
// primary, consuming the buffer entry (§3.1).
func TestSupplyProbeOrderAndPromotion(t *testing.T) {
	f := supplyRig(t)

	tr, dyns := mkSeq(0x1000, 8)
	sup := f.Supply(tr, dyns, 0)
	if sup.Hit || sup.Supplier != -1 {
		t.Fatalf("cold supply hit=%v supplier=%d, want slow-path miss", sup.Hit, sup.Supplier)
	}
	if f.stats.Slow.Builds != 1 {
		t.Fatalf("Slow.Builds = %d, want 1", f.stats.Slow.Builds)
	}

	tr2, dyns2 := mkSeq(0x1000, 8)
	sup = f.Supply(tr2, dyns2, 0)
	if !sup.Hit || sup.Supplier != 0 {
		t.Fatalf("repeat supply hit=%v supplier=%d, want trace-cache hit", sup.Hit, sup.Supplier)
	}
	if sup.FetchLat != 1 {
		t.Errorf("hit FetchLat = %d, want 1", sup.FetchLat)
	}

	// Plant a different trace in the buffers only.
	planted, pdyns := mkSeq(0x2000, 8)
	id := planted.ID()
	bufc := f.suppliers[1].s.(*tracecache.Buffers)
	bufc.Insert(f.traces.Intern(planted), 1)
	if f.primary.Contains(id) {
		t.Fatal("planted trace already in primary")
	}

	sup = f.Supply(planted, pdyns, 0)
	if !sup.Hit || sup.Supplier != 1 {
		t.Fatalf("buffer supply hit=%v supplier=%d, want buffer hit", sup.Hit, sup.Supplier)
	}
	if !f.primary.Contains(id) {
		t.Error("buffer hit not promoted into the primary supplier")
	}
	if f.suppliers[1].s.Contains(id) {
		t.Error("buffer entry not consumed by promotion")
	}

	st := f.Stats()
	if st.Suppliers[0].Probes != 3 || st.Suppliers[0].Hits != 1 {
		t.Errorf("supplier 0 probes/hits = %d/%d, want 3/1",
			st.Suppliers[0].Probes, st.Suppliers[0].Hits)
	}
	if st.Suppliers[1].Probes != 2 || st.Suppliers[1].Hits != 1 {
		t.Errorf("supplier 1 probes/hits = %d/%d, want 2/1",
			st.Suppliers[1].Probes, st.Suppliers[1].Hits)
	}
}
