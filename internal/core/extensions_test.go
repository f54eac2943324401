package core

import (
	"context"
	"strings"
	"testing"
)

func TestAdaptivePartitionStudy(t *testing.T) {
	r, err := AdaptivePartitionStudy(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	row := r.Rows[0]
	if row.FinalPBShare <= 0 || row.FinalPBShare > 0.5 {
		t.Errorf("final share %f out of range", row.FinalPBShare)
	}
	if !strings.Contains(render(r), "dynamic TC/PB partitioning") {
		t.Error("table missing header")
	}
}

func TestPreconAblations(t *testing.T) {
	r, err := PreconAblations(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]bool{}
	for _, row := range r.Rows {
		variants[row.Variant] = true
	}
	for _, want := range []string{
		"paper (default)", "no alignment heuristic", "1 constructor",
		"no branch forking", "stack depth 4", "prefetch cache 64 instr",
		"plain-LRU buffers", "+ resolve indirect targets (ext)",
	} {
		if !variants[want] {
			t.Errorf("missing variant %q", want)
		}
	}
	if !strings.Contains(render(r), "Ablation") {
		t.Error("table missing header")
	}
}

func TestPredictorAblations(t *testing.T) {
	r, err := PredictorAblations(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The full hybrid must not be the worst configuration on a
	// well-predicted benchmark.
	var full, bare float64
	for _, row := range r.Rows {
		switch row.Variant {
		case "hybrid + RHS (paper)":
			full = row.Accuracy
		case "path table only":
			bare = row.Accuracy
		}
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Errorf("accuracy %f out of range", row.Accuracy)
		}
	}
	if full < bare-0.02 {
		t.Errorf("full hybrid (%.3f) materially worse than bare table (%.3f)", full, bare)
	}
	if !strings.Contains(render(r), "next-trace predictor") {
		t.Error("table missing header")
	}
}

func TestMultiSeed(t *testing.T) {
	r, err := MultiSeed(context.Background(), SmallBudget, []string{"li"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.Seeds != 3 {
		t.Errorf("seeds = %d", row.Seeds)
	}
	if row.MinReduction > row.MeanReduction || row.MeanReduction > row.MaxReduction {
		t.Errorf("ordering: min %.2f mean %.2f max %.2f",
			row.MinReduction, row.MeanReduction, row.MaxReduction)
	}
	if row.StdReduction < 0 {
		t.Errorf("stddev = %f", row.StdReduction)
	}
	if !strings.Contains(render(r), "seeds") {
		t.Error("table missing header")
	}
	if _, err := MultiSeed(context.Background(), SmallBudget, []string{"li"}, 1); err == nil {
		t.Error("MultiSeed with 1 seed succeeded")
	}
}

func TestSensitivity(t *testing.T) {
	r, err := Sensitivity(context.Background(), SmallBudget, []string{"li"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(sensitivityVariants()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaseMissKI <= 0 {
			t.Errorf("%s: zero baseline misses", row.Variant)
		}
	}
	if !strings.Contains(render(r), "Sensitivity") {
		t.Error("table missing header")
	}
	// HoldsEverywhere is consistent with the rows.
	holds := true
	for _, row := range r.Rows {
		if row.ReductionPct <= 0 {
			holds = false
		}
	}
	if holds != r.HoldsEverywhere() {
		t.Error("HoldsEverywhere inconsistent")
	}
}

// TestAblationMechanismsMatter: on a large-working-set benchmark, the
// paper's default engine must beat the crippled variants that remove
// load-bearing mechanisms (sanity that the ablation axes are real).
func TestAblationMechanismsMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a bigger budget")
	}
	r, err := PreconAblations(context.Background(), 500_000, []string{"vortex"})
	if err != nil {
		t.Fatal(err)
	}
	get := func(v string) float64 {
		for _, row := range r.Rows {
			if row.Variant == v {
				return row.MissPerKI
			}
		}
		t.Fatalf("variant %q missing", v)
		return 0
	}
	def := get("paper (default)")
	if noAlign := get("no alignment heuristic"); noAlign < def*0.9 {
		t.Errorf("removing alignment helped substantially: %.2f vs %.2f", noAlign, def)
	}
	if tiny := get("prefetch cache 64 instr"); tiny < def*0.95 {
		t.Errorf("shrinking prefetch caches helped: %.2f vs %.2f", tiny, def)
	}
}
