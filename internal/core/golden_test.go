package core

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment tables")

// goldenBenches fixes a small, fast benchmark set per experiment so the
// golden run stays affordable at SmallBudget while still exercising
// every driver. compress and li have tiny working sets; li shows a
// nonzero preconstruction effect.
var goldenBenches = map[string][]string{
	"fig5":            {"compress", "li"},
	"tables123":       {"compress", "li"},
	"fig6":            {"compress"},
	"fig8":            {"compress"},
	"ext-adaptive":    {"compress"},
	"ablation-precon": {"compress"},
	"ablation-tpred":  {"compress"},
	"sensitivity":     {"li"},
	"seeds":           {"li"},
	"ext-frontend":    {"compress", "li"},
	"ext-sampling":    {"compress", "li"},
	"ext-memory":      {"gcc"},
}

// TestGoldenTables pins the rendered ASCII tables of all nine
// experiments: the declarative sweep engine must reproduce the
// hand-written drivers' output byte for byte. Regenerate with
//
//	go test ./internal/core -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, e := range Experiments() {
		benches, ok := goldenBenches[e.ID]
		if !ok {
			t.Errorf("no golden benchmark set for experiment %q; add one", e.ID)
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			r, err := e.Run(context.Background(), SmallBudget, benches)
			if err != nil {
				t.Fatal(err)
			}
			got := render(r)
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table changed from golden output.\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, got, want)
			}
		})
	}
}
