package frontend

import (
	"reflect"
	"slices"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/program"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
	"tracepre/internal/workload"
)

// lockstepTrace is one demanded trace with its committed instructions.
type lockstepTrace struct {
	tr   *trace.Trace
	dyns []emulator.Dyn
}

// lockstepStream returns the demanded traces of n committed
// instructions of a generated gcc program.
func lockstepStream(t *testing.T, n uint64) (*program.Image, []lockstepTrace) {
	t.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var all []emulator.Dyn
	if _, err := emulator.New(im).Run(n, func(d emulator.Dyn) { all = append(all, d) }); err != nil {
		t.Fatal(err)
	}
	var out []lockstepTrace
	seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
	for len(all) > 0 {
		used, tr, dyns := seg.Feed(all)
		if tr == nil {
			break
		}
		all = all[used:]
		out = append(out, lockstepTrace{tr.Clone(), slices.Clone(dyns)})
	}
	return im, out
}

// lockstepFrontend builds a frontend with preconstruction, resolving
// indirect jumps so the engine reads the target buffer too, over its own
// next-trace predictor tables and the given slow-path tables.
func lockstepFrontend(t *testing.T, im *program.Image, slow *SlowTables) *Frontend {
	t.Helper()
	cfg := testConfig(t)
	cfg.TraceCache = tracecache.Config{Entries: 64, Assoc: 2}
	cfg.Buffers = tracecache.BufferConfig{Entries: 64, Assoc: 2}
	cfg.Precon.ResolveIndirects = true
	cfg.Pred = tpred.NewTables(tpred.Config{})
	cfg.Slow = slow
	return newFrontend(t, im, cfg)
}

// feed runs trace i through f the way the pipeline does: in detail
// (Supply, a wrong-path replay on a next-trace mispredict, Retire) or
// in fast-forward (SupplyFast), at a clock that advances with i.
func feed(f *Frontend, s lockstepTrace, i int, fast bool) {
	now := uint64(8 * i)
	if fast {
		f.SupplyFast(s.tr, s.dyns, now, 6, true)
		return
	}
	sup := f.Supply(s.tr, s.dyns, now)
	if sup.PredOK && !sup.PredHit {
		f.ReplayWrongPath(sup.PredID, sup.ID)
	}
	f.Retire(s.tr, 6, s.dyns, now)
}

// fastAt puts traces in alternating stretches of detail and
// fast-forward, so every phase switch occurs.
func fastAt(i int) bool { return i/97%2 == 1 }

// TestSlowTablesLockstep: two frontends sharing one SlowTables, fed in
// lockstep through detailed and fast-forward stretches, each end equal
// to a frontend with private tables; a member one trace ahead panics.
func TestSlowTablesLockstep(t *testing.T) {
	im, stream := lockstepStream(t, 40_000)
	newSlow := func() *SlowTables {
		s, err := NewSlowTables()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	shared := newSlow()
	members := []*Frontend{lockstepFrontend(t, im, shared), lockstepFrontend(t, im, shared)}
	alone := lockstepFrontend(t, im, newSlow())
	for i, s := range stream {
		for _, f := range members {
			feed(f, s, i, fastAt(i))
		}
		feed(alone, s, i, fastAt(i))
	}
	if alone.Stats().Slow.BranchMisp == 0 || alone.PreconStats().TracesBuilt == 0 {
		t.Fatalf("the stream exercised nothing: %+v %+v", alone.Stats().Slow, alone.PreconStats())
	}
	for m, f := range members {
		if got, want := f.Stats(), alone.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("member %d: frontend stats\n got %+v\nwant %+v", m, got, want)
		}
		if got, want := f.PreconStats(), alone.PreconStats(); got != want {
			t.Errorf("member %d: engine stats\n got %+v\nwant %+v", m, got, want)
		}
		if got, want := f.PredStats(), alone.PredStats(); got != want {
			t.Errorf("member %d: predictor stats %+v, want %+v", m, got, want)
		}
	}

	for _, fast := range []bool{false, true} {
		func() {
			shared := newSlow()
			ahead, behind := lockstepFrontend(t, im, shared), lockstepFrontend(t, im, shared)
			feed(ahead, stream[0], 0, fast)
			feed(ahead, stream[1], 1, fast)
			defer func() {
				if recover() == nil {
					t.Errorf("fast=%v: a member one trace ahead did not panic", fast)
				}
			}()
			feed(behind, stream[0], 0, fast)
		}()
	}
}
