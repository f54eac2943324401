package pipeline

import (
	"errors"
	"reflect"
	"runtime/debug"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/trace"
)

// TestChunkedRunMatchesRunStream pins RunStream's budget tail against
// a hand-driven reference: the stream truncated at the budget, cut into
// traces one instruction at a time by trace.Builder and fed through
// StartChunked/RunTrace/Finish. RunStream sees the whole stream, so
// where a trace completes past the budget it must drop that trace
// exactly as truncation does.
func TestChunkedRunMatchesRunStream(t *testing.T) {
	im := memLoopImage(t, 400)
	st, err := emulator.Record(im, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var all []emulator.Dyn
	cr := st.DecodeChunks(0)
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		all = append(all, chunk...)
	}
	cr.Close()
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []uint64{10_000, 1_777, 100} {
		for _, timing := range []bool{false, true} {
			cfg := DefaultConfig().WithTraceCache(64).WithPrecon(64)
			cfg.FullTiming = timing
			got, err := newSim(t, im, cfg).RunStream(st, budget)
			if err != nil {
				t.Fatal(err)
			}

			sim := newSim(t, im, cfg)
			if err := sim.StartChunked(budget); err != nil {
				t.Fatal(err)
			}
			b := trace.NewBuilder(cfg.Select)
			start := 0
			for i, d := range all[:min(budget, uint64(len(all)))] {
				if b.AppendClassified(d.PC, &d.Inst, d.Inst.Classify(), d.Taken) {
					if _, err := sim.RunTrace(b.Seal(d.NextPC), all[start:i+1]); err != nil {
						t.Fatal(err)
					}
					b.Reset()
					start = i + 1
				}
			}
			want, err := sim.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("budget=%d timing=%v: RunStream result differs:\nstream    %+v\ntruncated %+v",
					budget, timing, got, want)
			}
		}
	}
}

// TestChunkedRunContract pins the chunked-run state machine: RunTrace
// and Finish before StartChunked report ErrNotChunked; StartChunked
// claims the simulator's single run (a second Start or any Run* entry
// point returns ErrRunTwice); RunTrace after budget exhaustion keeps
// reporting done without error; Finish seals the run so further Finish
// calls report ErrNotChunked.
func TestChunkedRunContract(t *testing.T) {
	im := loopImage(t, 50)
	st, err := emulator.Record(im, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	sim := newSim(t, im, DefaultConfig())
	if _, err := sim.RunTrace(nil, nil); !errors.Is(err, ErrNotChunked) {
		t.Errorf("RunTrace before Start = %v, want ErrNotChunked", err)
	}
	if _, err := sim.Finish(); !errors.Is(err, ErrNotChunked) {
		t.Errorf("Finish before Start = %v, want ErrNotChunked", err)
	}

	if err := sim.StartChunked(100); err != nil {
		t.Fatal(err)
	}
	if err := sim.StartChunked(100); !errors.Is(err, ErrRunTwice) {
		t.Errorf("second StartChunked = %v, want ErrRunTwice", err)
	}
	if _, err := sim.Run(100); !errors.Is(err, ErrRunTwice) {
		t.Errorf("Run after StartChunked = %v, want ErrRunTwice", err)
	}
	if _, err := sim.RunStream(st, 100); !errors.Is(err, ErrRunTwice) {
		t.Errorf("RunStream after StartChunked = %v, want ErrRunTwice", err)
	}

	cr := st.DecodeChunks(0)
	defer cr.Close()
	chunk, ok := cr.Next()
	if !ok {
		t.Fatal("no chunk")
	}
	seg := trace.NewChunkSegmenter(DefaultConfig().Select)
	var (
		tr   *trace.Trace
		dyns []emulator.Dyn
		done bool
	)
	for !done {
		var used int
		if used, tr, dyns = seg.Feed(chunk); tr == nil {
			t.Fatal("a 100-instruction budget survived a full default chunk")
		}
		chunk = chunk[used:]
		if done, err = sim.RunTrace(tr, dyns); err != nil {
			t.Fatal(err)
		}
	}
	// Feeding past exhaustion is allowed and inert.
	if done, err := sim.RunTrace(tr, dyns); err != nil || !done {
		t.Errorf("RunTrace after exhaustion = (%v, %v), want (true, nil)", done, err)
	}

	if _, err := sim.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Finish(); !errors.Is(err, ErrNotChunked) {
		t.Errorf("second Finish = %v, want ErrNotChunked", err)
	}
}

// TestChunkLoopSteadyStateAllocs checks the chunked hot loop does not
// allocate per instruction once warm: a whole RunStream, simulator
// construction included, allocates as much over 40k instructions as
// over 80k. Trace-store slab growth is the one legitimate allocator on
// this path, so the measured simulator uses a trace cache small enough
// to be fully populated well inside the shorter run. GC is off for the
// window: a collection cycle occasionally adds an allocation of its own.
func TestChunkLoopSteadyStateAllocs(t *testing.T) {
	im := loopImage(t, 6_000) // ~14 instrs/iteration, outruns both budgets
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(budget uint64) float64 {
		st, err := emulator.Record(im, budget)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := newSim(t, im, DefaultConfig().WithTraceCache(16)).RunStream(st, budget); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(40_000), allocs(80_000); short != long {
		t.Errorf("RunStream allocated %v times over 40k instructions and %v over 80k, want the same", short, long)
	}
}
