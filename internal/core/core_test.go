package core

import (
	"context"
	"strings"
	"testing"

	"tracepre/internal/harness"
)

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("benchmarks = %v", bs)
	}
	for _, b := range []string{"gcc", "go", "vortex"} {
		found := false
		for _, x := range bs {
			if x == b {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not in benchmark list", b)
		}
	}
	if len(TimingBenchmarks()) != 4 {
		t.Errorf("timing benchmarks = %v", TimingBenchmarks())
	}
}

func TestRunBenchmark(t *testing.T) {
	ctx := context.Background()
	c, err := RunBenchmark(ctx, "compress", BaselineConfig(64), SmallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Result; res.Instructions == 0 || res.Traces == 0 || c.Sample != nil {
		t.Errorf("empty or sampled result %+v", c)
	}
	if _, err := RunBenchmark(ctx, "nonesuch", BaselineConfig(64), SmallBudget); err == nil {
		t.Error("unknown benchmark succeeded")
	}
	if _, err := RunBenchmark(ctx, "compress", PreconConfig(0, 0), SmallBudget); err == nil {
		t.Error("invalid config succeeded")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := PreconConfig(128, 64)
	if c.TraceCache.Entries != 128 || c.Buffers.Entries != 64 || c.FullTiming {
		t.Errorf("PreconConfig = %+v", c)
	}
	tc := TimingConfig(c, true)
	if !tc.FullTiming || !tc.PreprocEnabled {
		t.Errorf("TimingConfig = %+v", tc)
	}
}

func TestFigure5Small(t *testing.T) {
	r, err := Figure5(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	// Every configured point exists and the baseline curve is
	// monotone non-increasing in TC size.
	var prev float64 = -1
	for _, p := range r.Points {
		if p.PBEntries != 0 {
			continue
		}
		if prev >= 0 && p.MissPerKI > prev+0.5 {
			t.Errorf("baseline curve rose sharply at TC=%d: %f -> %f", p.TCEntries, prev, p.MissPerKI)
		}
		prev = p.MissPerKI
	}
	text := render(r)
	if !strings.Contains(text, "Figure 5 [compress]") {
		t.Errorf("table missing header:\n%s", text)
	}
}

func TestTables123Small(t *testing.T) {
	r, err := Tables123(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0].Bench != "compress" {
		t.Fatalf("rows = %+v", r.Rows)
	}
	text := render(r)
	for _, want := range []string{"Table 1", "Table 2", "Table 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %s in:\n%s", want, text)
		}
	}
}

func TestFigure6Small(t *testing.T) {
	r, err := Figure6(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %+v", r.Points)
	}
	for _, p := range r.Points {
		if p.BaseIPC <= 0 || p.PreconIPC <= 0 {
			t.Errorf("bad IPC in %+v", p)
		}
	}
	if !strings.Contains(render(r), "Figure 6") {
		t.Error("table missing header")
	}
}

func TestFigure8Small(t *testing.T) {
	r, err := Figure8(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %+v", r.Rows)
	}
	row := r.Rows[0]
	if row.SumPct != row.PreconPct+row.PreprocPct {
		t.Error("sum of parts wrong")
	}
	if !strings.Contains(render(r), "Figure 8") {
		t.Error("table missing header")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 12 {
		t.Fatalf("experiments = %d", len(exps))
	}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.driver == nil || e.DefaultBenches == nil {
			t.Errorf("incomplete experiment %s", e.ID)
		}
		if got, err := ExperimentByID(e.ID); err != nil || got.ID != e.ID {
			t.Errorf("ExperimentByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ExperimentByID("nonesuch"); err == nil {
		t.Error("unknown experiment found")
	}
	// Each experiment runs on a tiny budget and one small benchmark, and
	// hands its options to every sweep: one that drops them would
	// silently ignore -j, -sample and -progress.
	for _, e := range exps {
		calls := 0
		r, err := e.Run(context.Background(), SmallBudget, []string{"compress"},
			harness.WithProgress(func(harness.Progress) { calls++ }))
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if render(r) == "" {
			t.Errorf("%s: empty output", e.ID)
		}
		if calls == 0 {
			t.Errorf("%s: reported no progress: its sweeps ignore their options", e.ID)
		}
	}
}

// render is the ASCII form of an experiment result.
func render(r harness.Tabler) string { return harness.RenderASCII(r.TableSpecs()) }
