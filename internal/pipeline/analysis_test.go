package pipeline

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

// sameIDVariant returns a copy of tr that differs from it in one of
// Op, Rd, Ra and Rb of one slot. Length and start address, and so the
// trace ID, stay the same.
func sameIDVariant(r *rand.Rand, tr *trace.Trace) *trace.Trace {
	v := &trace.Trace{PCs: tr.PCs, Insts: append([]isa.Inst(nil), tr.Insts...)}
	in := &v.Insts[r.Intn(len(v.Insts))]
	for orig := *in; *in == orig; {
		reg := uint8(r.Intn(13))
		switch r.Intn(4) {
		case 0:
			in.Op = isa.Op(r.Intn(int(isa.OpHalt) + 1))
		case 1:
			in.Rd = reg
		case 2:
			in.Ra = reg
		default:
			in.Rb = reg
		}
	}
	return v
}

// TestAnalysisSharedIDMatchesReference dispatches two traces with one
// ID, which differ only in one slot's Op, Rd, Ra or Rb, alternately
// through one backend, plain and preprocessed, and requires every
// dispatch to retire and resolve as dispatchReference does. Each switch
// must rebuild the one entry the ID reaches: the slot count alone does
// not tell the traces apart.
func TestAnalysisSharedIDMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dcache := cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}
	for round := 0; round < 300; round++ {
		got := testBackendWith(t, dcache, mem.DefaultModeledL2())
		want := testBackendWith(t, dcache, mem.DefaultModeledL2())
		a, dyns := randCtlTrace(r, 0x1000)
		pair := [2]*trace.Trace{a, sameIDVariant(r, a)}
		ready := uint64(10)
		for k := 0; k < 8; k++ {
			tr := pair[k%2]
			pre := r.Intn(2) == 0
			gr, gs := got.dispatch(tr, dyns, ready, pre)
			wr, ws := want.dispatchReference(tr, dyns, ready, pre)
			if gr != wr || gs != ws {
				t.Fatalf("round %d, dispatch %d (preprocessed %v): (retire, resolve) = (%d, %d), reference (%d, %d)\n%v\nother trace %v",
					round, k, pre, gr, gs, wr, ws, tr.Insts, pair[1-k%2].Insts)
			}
			ready += uint64(r.Intn(6))
		}
		if got.table.n != 1 {
			t.Fatalf("two traces under one ID made %d entries, want 1 rebuilt in place", got.table.n)
		}
	}
}

// TestAnalysisOncePerGroup runs Figure 8's four full-timing points
// behind the modeled L2 as one group over a gcc stream and requires the
// group to hold one analysis per distinct trace demanded, not one per
// member. The two preprocessing members share each entry's
// preprocessing too.
func TestAnalysisOncePerGroup(t *testing.T) {
	const budget = 60_000
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, tc := range []struct{ tc, pb int }{{256, 0}, {128, 128}} {
		for _, pre := range []bool{false, true} {
			cfg := DefaultConfig().WithTraceCache(tc.tc).WithModeledL2(mem.DefaultModeledL2())
			if tc.pb > 0 {
				cfg = cfg.WithPrecon(tc.pb)
			}
			cfg.FullTiming, cfg.PreprocEnabled = true, pre
			cfgs = append(cfgs, cfg)
		}
	}
	sims, err := NewGroup(im, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sims {
		if err := s.StartChunked(budget); err != nil {
			t.Fatal(err)
		}
	}
	distinct := map[trace.ID]bool{}
	seg := trace.NewChunkSegmenter(cfgs[0].Select)
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for chunk, ok := cr.Next(); ok; chunk, ok = cr.Next() {
		for len(chunk) > 0 {
			used, tr, dyns := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			distinct[tr.ID()] = true
			for _, s := range sims {
				if _, err := s.RunTrace(tr, dyns); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}

	tables := map[*analysisTable]bool{}
	entries := 0
	for _, s := range sims {
		if !tables[s.be.table] {
			tables[s.be.table] = true
			entries += s.be.table.n
		}
	}
	preprocessed := 0
	for tab := range tables {
		for k := 0; k < tab.n; k++ {
			if tab.entry(uint32(k)).pre {
				preprocessed++
			}
		}
	}
	t.Logf("%d distinct traces; %d tables, %d entries, %d preprocessed", len(distinct), len(tables), entries, preprocessed)
	if entries != len(distinct) {
		t.Errorf("the group's members hold %d analyses in %d tables for %d distinct traces, want one each",
			entries, len(tables), len(distinct))
	}
	if preprocessed == 0 {
		t.Error("no entry was preprocessed: the preprocessing members never dispatched a hit")
	}
}

// TestAnalysisEntryBytes bounds what the table keeps per distinct
// trace: one entry of at most 160 bytes, and, counting slab and index
// growth, under 192 bytes allocated per trace over 4,096 traces.
func TestAnalysisEntryBytes(t *testing.T) {
	if sz := unsafe.Sizeof(analysis{}); sz > 160 {
		t.Errorf("an analysis entry is %d bytes, want at most 160", sz)
	}
	const traces = 4096
	r := rand.New(rand.NewSource(1))
	trs := make([]*trace.Trace, traces)
	for k := range trs {
		trs[k], _ = randCtlTrace(r, uint32(0x1000+k*0x100))
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	tab := newAnalysisTable()
	for _, tr := range trs {
		tab.lookup(tr)
	}
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(tab)
	perTrace := float64(ms.TotalAlloc-before) / traces
	t.Logf("%.1f bytes allocated per distinct trace", perTrace)
	if tab.n != traces {
		t.Fatalf("%d entries for %d distinct traces", tab.n, traces)
	}
	if perTrace >= 192 {
		t.Errorf("the table allocated %.1f bytes per distinct trace, want under 192", perTrace)
	}
}
