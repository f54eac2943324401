package sample

import (
	"math"
	"testing"

	"tracepre/internal/frontend"
	"tracepre/internal/pipeline"
	"tracepre/internal/workload"
)

func TestPlanValidate(t *testing.T) {
	good := DefaultPlan()
	if err := good.Validate(); err != nil {
		t.Fatalf("DefaultPlan invalid: %v", err)
	}
	for name, p := range map[string]Plan{
		"zero detail":   {Detail: 0, Skip: 100},
		"zero skip":     {Detail: 100, Skip: 0},
		"warm > skip":   {Detail: 100, Warm: 200, Skip: 100},
		"negative ci":   {Detail: 100, Skip: 100, TargetRelCI: -0.1},
		"negative mins": {Detail: 100, Skip: 100, MinIntervals: -1},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
}

func TestPlanSchedule(t *testing.T) {
	p := Plan{Detail: 10, Warm: 20, Skip: 90}
	if got := p.Period(); got != 100 {
		t.Errorf("Period = %d, want 100", got)
	}
	// Unit i occupies [100i+90, 100(i+1)): complete when 100(i+1) <= budget.
	for _, c := range []struct {
		budget uint64
		want   int
	}{{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, 2}, {1000, 10}, {1099, 10}, {1100, 11}} {
		if got := p.Intervals(c.budget); got != c.want {
			t.Errorf("Intervals(%d) = %d, want %d", c.budget, got, c.want)
		}
	}
}

// detailFraction is the fraction of the stream a plan runs in full
// detail: measurement units plus detailed warm-up.
func detailFraction(p Plan) float64 {
	return float64(p.Detail+p.Warm) / float64(p.Period())
}

func TestPlanForBudget(t *testing.T) {
	// Every scale yields a valid plan with enough units for Student-t
	// intervals but not vastly more (extra budget should lengthen the
	// skips, not multiply the warming).
	for _, budget := range []uint64{200_000, 2_000_000, 20_000_000, 200_000_000} {
		p := PlanForBudget(budget)
		if err := p.Validate(); err != nil {
			t.Fatalf("PlanForBudget(%d) invalid: %v", budget, err)
		}
		if n := p.Intervals(budget); n < 20 || n > 32 {
			t.Errorf("PlanForBudget(%d) yields %d intervals, want 20..32", budget, n)
		}
	}
	// Small budgets halve every length, keeping the detailed fraction.
	for _, budget := range []uint64{200_000, 2_000_000} {
		p := PlanForBudget(budget)
		df, want := detailFraction(p), detailFraction(DefaultPlan())
		if math.Abs(df-want) > 0.01 {
			t.Errorf("PlanForBudget(%d) detail fraction %v, want ~%v", budget, df, want)
		}
	}
	// Large budgets stretch the skip: unit, warm-up and warm-model
	// lengths keep their default absolute values while the detailed
	// fraction shrinks — that is the paper-scale economy.
	big, def := PlanForBudget(200_000_000), DefaultPlan()
	if big.Detail != def.Detail || big.Warm != def.Warm ||
		big.ModelWarm != def.ModelWarm || big.EngineWarm != def.EngineWarm {
		t.Errorf("paper-scale budget must keep default warming lengths, got %+v", big)
	}
	if big.Skip <= def.Skip {
		t.Errorf("paper-scale budget must stretch the skip, got %d", big.Skip)
	}
	if df := detailFraction(big); df > 0.01 {
		t.Errorf("paper-scale detail fraction %v, want under 1%%", df)
	}
}

func TestDeltaResult(t *testing.T) {
	start := pipeline.Result{
		Instructions:    1000,
		Cycles:          400,
		TCMisses:        10,
		AdaptivePBShare: 0.25,
		Frontend: frontend.Stats{Suppliers: []frontend.SupplierStats{
			{Name: "trace-cache", Probes: 100, Hits: 90},
		}},
	}
	start.Intern.SlabBytes = 5
	end := pipeline.Result{
		Instructions:    1500,
		Cycles:          600,
		TCMisses:        14,
		AdaptivePBShare: 0.5,
		Frontend: frontend.Stats{Suppliers: []frontend.SupplierStats{
			{Name: "trace-cache", Probes: 160, Hits: 140},
		}},
	}
	end.Intern.SlabBytes = 7

	d := deltaResult(end, start)
	if d.Instructions != 500 || d.Cycles != 200 || d.TCMisses != 4 {
		t.Errorf("counter deltas wrong: %+v", d)
	}
	if d.AdaptivePBShare != 0.5 || d.Intern.SlabBytes != 7 {
		t.Errorf("gauges must keep end values: share %v slab bytes %d", d.AdaptivePBShare, d.Intern.SlabBytes)
	}
	sp := d.Frontend.Suppliers[0]
	if sp.Probes != 60 || sp.Hits != 50 || sp.Name != "trace-cache" {
		t.Errorf("nested slice delta wrong: %+v", sp)
	}
	// The delta owns its slices: mutating it must not write through to
	// the end snapshot.
	d.Frontend.Suppliers[0].Probes = 9999
	if end.Frontend.Suppliers[0].Probes != 160 {
		t.Errorf("delta aliases the end snapshot's supplier slice")
	}

	sum := addResult(deltaResult(end, start), deltaResult(end, start))
	if sum.Instructions != 1000 || sum.Frontend.Suppliers[0].Probes != 120 {
		t.Errorf("addResult wrong: %+v", sum)
	}
	if sum.AdaptivePBShare != 0.5 {
		t.Errorf("addResult gauge must keep the newer value, got %v", sum.AdaptivePBShare)
	}
}

func newSim(t testing.TB, bench string, cfg pipeline.Config) *pipeline.Simulator {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipeline.New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestRunnerErrors(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	if _, err := NewRunner(newSim(t, "gcc", cfg), Plan{}, 1000); err == nil {
		t.Error("NewRunner must reject an invalid plan")
	}
	if _, err := NewRunner(newSim(t, "gcc", cfg), DefaultPlan(), 0); err == nil {
		t.Error("NewRunner must reject a zero budget")
	}
	sim := newSim(t, "gcc", cfg)
	// Skip == Warm leaves no fast-forward segment, so this runner starts
	// in detailed warm-up.
	r, err := NewRunner(sim, Plan{Detail: 100, Warm: 50, Skip: 50}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SkipRaw(10); err == nil {
		t.Error("SkipRaw outside fast-forward must fail")
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err == nil {
		t.Error("second Finish must fail")
	}
	// The runner claimed the simulator's single run.
	if _, err := sim.Run(10); err != pipeline.ErrRunTwice {
		t.Errorf("runner must claim the simulator's run, got %v", err)
	}
}
