package pipeline

import (
	"reflect"
	"runtime/debug"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/trace"
)

// TestPhaseZeroValueIsMeasure pins the property the non-sampled goldens
// rely on: a freshly built simulator is already in PhaseMeasure, so
// runs that never touch SetPhase behave exactly as before phases
// existed.
func TestPhaseZeroValueIsMeasure(t *testing.T) {
	sim := newSim(t, loopImage(t, 100), DefaultConfig().WithTraceCache(16))
	if got := sim.Phase(); got != PhaseMeasure {
		t.Fatalf("new simulator phase = %v, want PhaseMeasure", got)
	}
	sim.SetPhase(PhaseFastForward)
	if got := sim.Phase(); got != PhaseFastForward {
		t.Fatalf("SetPhase not applied: %v", got)
	}
	sim.SetPhase(PhaseMeasure)
	if got := sim.Phase(); got != PhaseMeasure {
		t.Fatalf("SetPhase not applied: %v", got)
	}
}

// segmentStream decodes a recorded stream into owned (trace, dispatch)
// pairs with the given selection rules, so tests can feed RunTrace
// repeatedly without re-segmenting.
func segmentStream(t *testing.T, st *emulator.Stream, sel trace.SelectConfig) (trs []*trace.Trace, dyns [][]emulator.Dyn) {
	t.Helper()
	seg := trace.NewChunkSegmenter(sel)
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 {
			used, tr, ds := seg.Feed(chunk)
			chunk = chunk[used:]
			if tr == nil {
				break
			}
			trs = append(trs, tr.Clone())
			dyns = append(dyns, append([]emulator.Dyn(nil), ds...))
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return trs, dyns
}

// TestFastForwardFreezesStats feeds the same stream prefix twice — once
// in PhaseMeasure, then again in PhaseFastForward — and requires the
// fast-forward pass to leave every measured counter untouched: the
// Snapshot before and after the fast-forward stretch must be equal.
// (Trace-store residency is exempt: fast-forward interns missed traces
// so supplier contents stay current — that is state, not measurement.)
func TestFastForwardFreezesStats(t *testing.T) {
	im := loopImage(t, 600)
	st, err := emulator.Record(im, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	sim := newSim(t, im, cfg)
	if err := sim.StartChunked(1 << 40); err != nil {
		t.Fatal(err)
	}
	trs, dyns := segmentStream(t, st, cfg.Select)
	feed := func() {
		for i := range trs {
			if _, err := sim.RunTrace(trs[i], dyns[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed() // measured pass
	before := sim.Snapshot()
	if before.Instructions == 0 || before.Cycles == 0 {
		t.Fatalf("measured pass recorded nothing: %+v", before)
	}
	sim.SetPhase(PhaseFastForward)
	feed() // fast-forward pass: state may move, statistics must not
	after := sim.Snapshot()
	before.Intern, after.Intern = trace.StoreStats{}, trace.StoreStats{}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("fast-forward moved statistics:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestSnapshotMatchesFinish pins Snapshot's contract: it is the same
// fold Finish performs, so the last mid-run Snapshot equals the sealed
// Result exactly, and taking snapshots never perturbs the run.
func TestSnapshotMatchesFinish(t *testing.T) {
	im := loopImage(t, 500)
	const budget = 6_000
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithTraceCache(64)

	want, err := newSim(t, im, cfg).RunStream(st, budget)
	if err != nil {
		t.Fatal(err)
	}

	sim := newSim(t, im, cfg)
	if err := sim.StartChunked(budget); err != nil {
		t.Fatal(err)
	}
	trs, dyns := segmentStream(t, st, cfg.Select)
	for i := range trs {
		done, err := sim.RunTrace(trs[i], dyns[i])
		if err != nil {
			t.Fatal(err)
		}
		sim.Snapshot() // must not perturb anything
		if done {
			break
		}
	}
	snap := sim.Snapshot()
	got, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Errorf("final Snapshot differs from Finish:\nsnap   %+v\nfinish %+v", snap, got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshotted run differs from plain run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFastForwardSteadyStateAllocs requires the warm-model fast-forward
// trace loop to stop allocating once its working set is interned: the
// sampled runner spends ~90% of the stream here, so a per-trace
// allocation would dominate paper-scale runs.
func TestFastForwardSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	im := loopImage(t, 600)
	st, err := emulator.Record(im, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	sim := newSim(t, im, cfg)
	if err := sim.StartChunked(1 << 40); err != nil {
		t.Fatal(err)
	}
	trs, dyns := segmentStream(t, st, cfg.Select)
	sim.SetPhase(PhaseFastForward)
	feed := func() {
		for i := range trs {
			if _, err := sim.RunTrace(trs[i], dyns[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed() // intern the working set
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(10, feed); avg > 0 {
		t.Errorf("fast-forward loop allocates %.1f times per pass over %d traces, want 0", avg, len(trs))
	}
}
