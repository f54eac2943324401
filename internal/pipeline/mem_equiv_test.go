package pipeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/mem"
	"tracepre/internal/workload"
)

// TestFixedLevelMatchesLegacyConstant is the cross-wiring equivalence
// proof for the memory-hierarchy refactor: the default fixed-latency level
// must produce exactly the Results the legacy flat `+= L2Lat` arithmetic
// produced. testdata/mem/legacy.golden.json was captured from the
// pre-refactor code (full-timing runs on a recorded gcc stream) and is
// deliberately NOT regenerable — it is the frozen legacy behavior. Every
// field that existed before the refactor must match bit for bit; fields
// the refactor added (Memory, Port.PreconMemDenied) are additive and not
// present in the legacy capture.
func TestFixedLevelMatchesLegacyConstant(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "mem", "legacy.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var legacy map[string]map[string]any
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}

	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}

	base := DefaultConfig().WithTraceCache(64)
	base.FullTiming = true
	precon := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	precon.FullTiming = true
	configs := map[string]Config{
		"timing-base":   base,
		"timing-precon": precon,
	}

	names := make([]string, 0, len(legacy))
	for name := range legacy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := legacy[name]
		cfg, ok := configs[name]
		if !ok {
			t.Fatalf("legacy golden has config %q this test does not build", name)
		}
		t.Run(name, func(t *testing.T) {
			res, err := newSim(t, im, cfg).RunStream(st, budget)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(buf, &got); err != nil {
				t.Fatal(err)
			}
			legacySubsetEqual(t, "Result", got, want)
		})
	}
}

// legacySubsetEqual asserts every field the legacy capture has is
// present in the current Result with an identical value, recursing into
// nested objects and arrays so refactor-added fields (absent from the
// capture) are tolerated while any changed pre-existing value — however
// deeply nested — fails with its path.
func legacySubsetEqual(t *testing.T, path string, got, want any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: legacy has an object, current is %T", path, got)
			return
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Errorf("%s.%s: pre-refactor field lost", path, k)
				continue
			}
			legacySubsetEqual(t, path+"."+k, gv, wv)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s: legacy array of %d, current %v", path, len(w), got)
			return
		}
		for i := range w {
			legacySubsetEqual(t, fmt.Sprintf("%s[%d]", path, i), g[i], w[i])
		}
	default:
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, legacy flat-latency code produced %v", path, got, want)
		}
	}
}

// TestModeledL2ChangesTiming is the other half of the wiring proof: the
// modeled level is actually in the loop. The same recorded stream under
// a deliberately starved modeled L2 must cost more cycles than under the
// fixed level, and its stats must show the three requesters meeting in
// the shared level.
func TestModeledL2ChangesTiming(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}

	fixed := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	fixed.FullTiming = true
	modeled := fixed
	// The i-cache's size and ways: heavy L2 missing.
	modeled.Mem = mem.Config{ModelL2: true, SizeBytes: fixed.ICacheBytes, Assoc: icacheAssoc, MSHRs: 1}

	fres, err := newSim(t, im, fixed).RunStream(st, budget)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := newSim(t, im, modeled).RunStream(st, budget)
	if err != nil {
		t.Fatal(err)
	}

	if fres.Memory.Misses != 0 {
		t.Errorf("fixed level missed %d times; it cannot miss", fres.Memory.Misses)
	}
	if mres.Cycles <= fres.Cycles {
		t.Errorf("starved modeled L2 ran in %d cycles, fixed level %d; misses cost nothing",
			mres.Cycles, fres.Cycles)
	}
	ms := mres.Memory
	if ms.Misses == 0 {
		t.Error("modeled L2 never missed on a gcc stream at L1 size")
	}
	if ms.IAccesses == 0 || ms.DAccesses == 0 {
		t.Errorf("shared level not shared: I %d / D %d accesses", ms.IAccesses, ms.DAccesses)
	}
	if ms.IAccesses+ms.DAccesses+ms.PreconAccesses != ms.Accesses {
		t.Errorf("per-port accesses do not sum: %+v", ms)
	}
	// Demand i-fetch and the backend hit the same tag store as the
	// engine; the fixed-level run's access counts bound what reached L2.
	if ms.MSHRStallCycles == 0 {
		t.Error("single MSHR never stalled a second outstanding miss")
	}
}
