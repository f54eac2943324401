package pipeline

import (
	"reflect"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/frontend"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

// TestStoreLeakInvariant pins the trace table's invariant, that the
// table only grows: across the paper's configuration space, a
// simulator's table holds one entry per distinct trace the simulator
// interned, and a second simulator of the same configuration run over
// that table finds every trace it interns already there and simulates
// exactly what the first did.
func TestStoreLeakInvariant(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}

	base := DefaultConfig()
	preproc := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	preproc.FullTiming = true
	preproc.PreprocEnabled = true
	// The unified adaptive store needs a power-of-two total set count.
	adaptive := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	adaptive.AdaptivePartition = true
	plainLRU := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	plainLRU.Buffers.PlainLRU = true

	cases := []struct {
		name string
		cfg  Config
	}{
		{"tc-only", base.WithTraceCache(64)},
		{"precon", base.WithTraceCache(64).WithPrecon(32)},
		{"precon-small", base.WithTraceCache(16).WithPrecon(16)},
		{"precon-plain-lru", plainLRU},
		{"adaptive", adaptive},
		{"preproc-full-timing", preproc},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			traces := trace.NewStore()
			run := func() Result {
				t.Helper()
				slow, err := frontend.NewSlowTables()
				if err != nil {
					t.Fatal(err)
				}
				var analyses *analysisTable
				if tt.cfg.FullTiming {
					analyses = newAnalysisTable()
				}
				sim, err := newMember(im, tt.cfg, tpred.NewTables(tt.cfg.Pred), slow, traces, analyses)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(60_000)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run()
			st := first.Intern
			if st.Interns == 0 || st.Hits == 0 {
				t.Fatalf("intern stats idle: %+v", st)
			}
			if got := uint64(traces.Len()); got != st.Interns-st.Hits {
				t.Fatalf("table holds %d entries, the run interned %d distinct traces", got, st.Interns-st.Hits)
			}
			n := traces.Len()
			second := run()
			if traces.Len() != n {
				t.Errorf("a second run of the same configuration grew the table from %d to %d entries", n, traces.Len())
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("a run over a table another run filled simulated differently:\nfirst  %+v\nsecond %+v", first, second)
			}
		})
	}
}

// TestGroupSharesTraceTable checks what one table per group means for
// its members: two members of one NewGroup, fed the same traces in
// lockstep, hold the same table entry for equal content, a lone
// simulator holds an equal but distinct copy in its own table, and all
// three report the same Result, Result.Intern included.
func TestGroupSharesTraceTable(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	st, err := emulator.Record(im, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	sims, err := NewGroup(im, []Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	sims = append(sims, newSim(t, im, cfg))
	for _, sim := range sims {
		if err := sim.StartChunked(1 << 40); err != nil {
			t.Fatal(err)
		}
	}
	trs, dyns := segmentStream(t, st, cfg.Select)
	for i := range trs {
		for _, sim := range sims {
			if _, err := sim.RunTrace(trs[i], dyns[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var res [3]Result
	for i, sim := range sims {
		if res[i], err = sim.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if res[0].Intern.Hits == 0 {
		t.Fatalf("intern stats idle: %+v", res[0].Intern)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[i], res[0]) {
			t.Errorf("simulator %d simulated differently from member 0: Intern %+v against %+v", i, res[i].Intern, res[0].Intern)
		}
	}
	// Supply returns the table's entry for a demanded trace, resident
	// or interned on a miss.
	for i := len(trs) - 200; i < len(trs); i++ {
		var got [3]*trace.Trace
		for k, sim := range sims {
			got[k] = sim.fe.Supply(trs[i], dyns[i], 0).Trace
		}
		if got[0] != got[1] {
			t.Fatalf("trace %d (%v): group members hold %p and %p, want one entry", i, trs[i].ID(), got[0], got[1])
		}
		if got[2] == got[0] || !reflect.DeepEqual(got[2].PCs, got[0].PCs) || !reflect.DeepEqual(got[2].Insts, got[0].Insts) {
			t.Fatalf("trace %d (%v): lone simulator holds %p, want a distinct equal copy of %p", i, trs[i].ID(), got[2], got[0])
		}
	}
}
