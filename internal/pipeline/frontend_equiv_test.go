package pipeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/workload"
)

var updateEquiv = flag.Bool("update", false, "rewrite the cross-design equivalence goldens")

// equivDesigns enumerates the paper's three frontend compositions, all
// driven from the same recorded stream.
func equivDesigns() []struct {
	name string
	cfg  Config
} {
	split := DefaultConfig().WithTraceCache(64)
	precon := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	adaptive := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	adaptive.AdaptivePartition = true
	return []struct {
		name string
		cfg  Config
	}{
		{"split", split},
		{"split-precon", precon},
		{"adaptive", adaptive},
	}
}

// TestCrossDesignEquivalence pins the full Result of each frontend
// design — split, split+precon, adaptive — on one recorded stream
// against committed goldens. Any refactor of the supplier arbitration,
// fill routing or port accounting that changes a single counter, cycle
// or stat anywhere in the Result breaks this test; regenerate with
// -update only for intentional model changes.
func TestCrossDesignEquivalence(t *testing.T) {
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

	for _, d := range equivDesigns() {
		t.Run(d.name, func(t *testing.T) {
			res, err := newSim(t, im, d.cfg).RunStream(st, budget)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "frontend", d.name+".golden.json")
			if *updateEquiv {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Result diverged from %s (run with -update if intentional)\ngot:\n%s",
					path, got)
			}
		})
	}
}

// TestPortStealsOnlyIdleCycles is the integration half of the port
// arbitration contract: across a full run, every engine line fetch
// consumed a granted idle cycle (fetches never exceed grants), the
// port's engine-side counters agree with the engine's own stats, and
// the demand side saw exactly the slow path's line traffic.
func TestPortStealsOnlyIdleCycles(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newSim(t, im, DefaultConfig().WithTraceCache(64).WithPrecon(64)).Run(60_000)
	if err != nil {
		t.Fatal(err)
	}
	port := res.Frontend.Port
	if port.PreconFetches == 0 {
		t.Fatal("engine never fetched; arbitration untested")
	}
	if port.PreconFetches > port.IdleCycles {
		t.Errorf("engine fetched %d lines on %d granted idle cycles",
			port.PreconFetches, port.IdleCycles)
	}
	if port.PreconFetches != res.Precon.LinesFetched {
		t.Errorf("port granted %d engine fetches, engine counted %d",
			port.PreconFetches, res.Precon.LinesFetched)
	}
	if port.PreconMisses != res.Precon.ICacheMisses {
		t.Errorf("port counted %d engine misses, engine %d",
			port.PreconMisses, res.Precon.ICacheMisses)
	}
	if port.DemandAccesses != res.SlowICAccesses {
		t.Errorf("port demand accesses %d != slow-path accesses %d",
			port.DemandAccesses, res.SlowICAccesses)
	}
	if port.DemandMisses != res.SlowICMisses {
		t.Errorf("port demand misses %d != slow-path misses %d",
			port.DemandMisses, res.SlowICMisses)
	}
	// Total i-cache misses decompose exactly into the two port sides.
	if res.TotalICMisses != port.DemandMisses+port.PreconMisses {
		t.Errorf("TotalICMisses %d != demand %d + engine %d",
			res.TotalICMisses, port.DemandMisses, port.PreconMisses)
	}
}
