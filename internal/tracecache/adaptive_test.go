package tracecache

import (
	"testing"

	"tracepre/internal/trace"
)

func TestAdaptiveValidation(t *testing.T) {
	for _, c := range []Config{{}, {Entries: 48, Assoc: 2}} {
		if _, err := NewAdaptive(c); err == nil {
			t.Errorf("invalid geometry %+v accepted", c)
		}
	}
}

func TestAdaptiveRoleSeparation(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	tr := mkTrace(0x1000)
	if !a.InsertPrecon(tr, 1) {
		t.Fatal("precon insert refused")
	}
	// Buffer-role entries are invisible to the trace cache view.
	if _, hit := a.Lookup(tr.ID()); hit {
		t.Error("Lookup hit a buffer-role entry")
	}
	if a.Contains(tr.ID()) {
		t.Error("Contains saw a buffer-role entry")
	}
	if !a.ContainsPrecon(tr.ID()) {
		t.Error("ContainsPrecon missed")
	}
	// Take promotes in place: afterwards it is a trace-cache entry.
	got, hit := a.Take(tr.ID())
	if !hit || got != tr {
		t.Fatal("Take missed")
	}
	if a.ContainsPrecon(tr.ID()) {
		t.Error("entry still in buffer role after Take")
	}
	if !a.Contains(tr.ID()) {
		t.Error("entry not in trace cache role after Take")
	}
	if _, hit := a.Take(tr.ID()); hit {
		t.Error("second Take hit")
	}
	tc, pb := a.Occupancy()
	if tc != 1 || pb != 0 {
		t.Errorf("occupancy = %d,%d", tc, pb)
	}
}

func TestAdaptiveInsertOverBufferedEntry(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	tr := mkTrace(0x1000)
	a.InsertPrecon(tr, 1)
	// A demand insert of the same trace converts it to TC role without
	// duplicating.
	tr2 := mkTrace(0x1000) // same ID: a different object
	a.Insert(tr2)
	tc, pb := a.Occupancy()
	if tc != 1 || pb != 0 {
		t.Errorf("occupancy = %d,%d", tc, pb)
	}
	if got, hit := a.Lookup(tr.ID()); !hit || got != tr2 {
		t.Error("converted entry wrong")
	}
}

func TestAdaptivePreconInsertOnCachedTraceIsNoop(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	tr := mkTrace(0x1000)
	a.Insert(tr)
	if !a.InsertPrecon(mkTrace(0x1000), 3) {
		t.Error("precon insert over cached trace should report success")
	}
	if a.ContainsPrecon(tr.ID()) {
		t.Error("cached trace demoted to buffer role")
	}
}

func TestAdaptiveRegionPriorityPreserved(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 4, Assoc: 2}) // 2 sets x 2 ways
	// Fill one set with buffer entries from region 5.
	ts := make([]*trace.Trace, 0, 8)
	set0 := mkTrace(0x1000).ID().Hash() & a.setMask
	for start := uint32(0x1000); len(ts) < 4; start += 4 {
		tr := mkTrace(start)
		if tr.ID().Hash()&a.setMask == set0 {
			ts = append(ts, tr)
		}
	}
	// Force the store over its buffer target so region rules apply.
	a.targetPB = adaptiveMinShare
	if !a.InsertPrecon(ts[0], 5) || !a.InsertPrecon(ts[1], 5) {
		t.Fatal("initial inserts refused")
	}
	// Same region cannot displace same region when over target.
	if a.InsertPrecon(ts[2], 5) {
		t.Error("same-region displacement allowed over target")
	}
	// A newer region can.
	if !a.InsertPrecon(ts[2], 6) {
		t.Error("newer region refused")
	}
}

func TestAdaptiveSharesMoveUnderFeedback(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	a.epochLen = 64
	a.warmup = 0
	start := a.TargetPBShare()
	// Drive epochs of pure misses: the hill climber must move the
	// target (direction changes are allowed, movement is required).
	for i := 0; i < 1000; i++ {
		a.Lookup(mkTrace(uint32(0x1000 + i*4)).ID())
		a.Take(mkTrace(uint32(0x9000 + i*4)).ID())
	}
	if a.Adjustments() == 0 {
		t.Errorf("no adjustments after %d epochs (target still %.2f)", 1000/64, start)
	}
	if s := a.TargetPBShare(); s < adaptiveMinShare || s > adaptiveMaxShare {
		t.Errorf("target %.3f out of bounds", s)
	}
}

func TestAdaptivePBViewProtocol(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	v := a.PBView()
	tr := mkTrace(0x2000)
	if !v.Insert(tr, 1) {
		t.Fatal("view insert failed")
	}
	if !v.Contains(tr.ID()) {
		t.Error("view contains failed")
	}
	got, hit := v.Take(tr.ID())
	if !hit || got != tr {
		t.Error("view take failed")
	}
	if v.Contains(tr.ID()) {
		t.Error("view still contains after take")
	}
}

func TestAdaptiveStatsAndString(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 16, Assoc: 2})
	a.Insert(mkTrace(0x1000))
	a.Lookup(mkTrace(0x1000).ID())
	a.InsertPrecon(mkTrace(0x2000), 1)
	if s := a.Stats(); s.Lookups != 1 || s.Hits != 1 || s.Inserts != 1 {
		t.Errorf("tc stats = %+v", s)
	}
	if s := a.PBStatsView(); s.Inserts != 1 {
		t.Errorf("pb stats = %+v", s)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
	if a.PBShare() <= 0 {
		t.Errorf("PBShare = %f", a.PBShare())
	}
}

func TestAdaptiveTCInsertNeverRefused(t *testing.T) {
	a := newAdaptive(t, Config{Entries: 4, Assoc: 2})
	// Fill everything with buffer entries, then demand inserts must
	// still succeed by reclaiming buffer space.
	for start := uint32(0x1000); start < 0x1100; start += 4 {
		a.InsertPrecon(mkTrace(start), 9)
	}
	for start := uint32(0x5000); start < 0x5040; start += 4 {
		tr := mkTrace(start)
		a.Insert(tr)
		if !a.Contains(tr.ID()) {
			t.Fatalf("demand insert lost at 0x%x", start)
		}
	}
}
