package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

func smallMatrix() Matrix {
	return Matrix{
		Name:    "test",
		Benches: []string{"compress", "li"},
		Budget:  20_000,
		Points: []ConfigPoint{
			{Name: "base", Cfg: baseline(128)},
			{Name: "precon", Cfg: precon(64, 64)},
		},
	}
}

func TestMatrixValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Matrix)
		want string
	}{
		{"no benches", func(m *Matrix) { m.Benches = nil }, "no benchmarks"},
		{"no points", func(m *Matrix) { m.Points = nil }, "no config points"},
		{"zero budget", func(m *Matrix) { m.Budget = 0 }, "zero budget"},
		{"unnamed point", func(m *Matrix) { m.Points[0].Name = "" }, "unnamed config point"},
		{"duplicate point", func(m *Matrix) { m.Points[1].Name = "base" }, "repeats config point"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := smallMatrix()
			c.mut(&m)
			_, err := Run(context.Background(), m)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestRunGrid(t *testing.T) {
	m := smallMatrix()
	g, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(g.Cells))
	}
	// Deterministic bench-major order.
	wantOrder := []struct{ bench, point string }{
		{"compress", "base"}, {"compress", "precon"}, {"li", "base"}, {"li", "precon"},
	}
	for i, w := range wantOrder {
		c := g.Cells[i]
		if c.Bench != w.bench || c.Point.Name != w.point {
			t.Errorf("cell %d = (%s,%s), want (%s,%s)", i, c.Bench, c.Point.Name, w.bench, w.point)
		}
		if c.Result.Instructions == 0 {
			t.Errorf("cell %d has empty result", i)
		}
	}
	// Lookups.
	if c := g.Cell("li", "precon"); c == nil || c.Bench != "li" {
		t.Errorf("Cell lookup = %+v", c)
	}
	if g.Cell("li", "nonesuch") != nil {
		t.Error("missing point found")
	}
	if g.CellSeed("li", 99, "base") != nil {
		t.Error("missing seed found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCell on missing cell did not panic")
		}
	}()
	g.MustCell("li", "nonesuch")
}

func TestRunDuplicateBenchFirstWins(t *testing.T) {
	m := smallMatrix()
	m.Benches = []string{"compress", "compress"}
	g, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 2 {
		t.Errorf("cells = %d, want 2 (duplicate benchmark deduplicated)", len(g.Cells))
	}
}

func TestRunCellError(t *testing.T) {
	m := smallMatrix()
	m.Benches = []string{"compress", "nonesuch"}
	_, err := Run(context.Background(), m)
	if err == nil {
		t.Fatal("unknown benchmark succeeded")
	}
	for _, want := range []string{"test", "nonesuch"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	m = smallMatrix()
	m.Points[1].Cfg = precon(0, 0) // invalid simulator configuration
	_, err = Run(context.Background(), m)
	if err == nil || !strings.Contains(err.Error(), "precon") {
		t.Errorf("invalid config error = %v, want cell name", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, smallMatrix())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := smallMatrix()
	m.Seeds = []int64{0, 1, 2, 3} // 16 cells: enough to cancel mid-flight
	_, err := Run(ctx, m, WithProgress(func(p Progress) {
		if p.Done >= 1 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunProgress(t *testing.T) {
	var (
		mu   sync.Mutex
		snap []Progress
	)
	record := func(p Progress) {
		mu.Lock()
		snap = append(snap, p)
		mu.Unlock()
	}
	g, err := Run(context.Background(), smallMatrix(), WithProgress(record))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(g.Cells)+1 {
		t.Fatalf("progress calls = %d, want %d (one pre-sweep + one per cell)",
			len(snap), len(g.Cells)+1)
	}
	if snap[0].Done != 0 {
		t.Errorf("first snapshot Done = %d, want 0", snap[0].Done)
	}
	last := snap[len(snap)-1]
	if last.Done != last.Total || last.Total != len(g.Cells) {
		t.Errorf("final snapshot = %+v, want Done == Total == %d", last, len(g.Cells))
	}
	if last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Done != snap[i-1].Done+1 {
			t.Errorf("snapshot %d Done = %d, want %d", i, snap[i].Done, snap[i-1].Done+1)
		}
	}
}

func TestMetrics(t *testing.T) {
	g, err := Run(context.Background(), smallMatrix())
	if err != nil {
		t.Fatal(err)
	}
	base, pre := g.MustCell("compress", "base"), g.MustCell("compress", "precon")
	if v := TCMissPerKI.Of(base.Result); v <= 0 {
		t.Errorf("TCMissPerKI = %f, want > 0", v)
	}
	// Same cell speedup over itself is exactly zero.
	if v := SpeedupPct(base, base); v != 0 {
		t.Errorf("self speedup = %f, want 0", v)
	}
	if v := ReductionPct(TCMissPerKI, base, base); v != 0 {
		t.Errorf("self reduction = %f, want 0", v)
	}
	_ = pre
	for _, m := range []Metric{TCMissPerKI, ICacheInstrsPerKI, ICacheMissesPerKI,
		InstrsFromICMissesPerKI, IPC, PredAccuracy} {
		if m.Name == "" || m.Fn == nil {
			t.Errorf("incomplete metric %+v", m)
		}
	}
}

// TestPreconOverheadMetric runs a sweep with engine overhead timing on
// and checks the measurement flows from the engine's counters into the
// sweep's Results: precon cells report a positive overhead in both
// engine calls, baseline cells (no engine) report zero.
func TestPreconOverheadMetric(t *testing.T) {
	m := smallMatrix()
	for i := range m.Points {
		m.Points[i].Cfg.Precon.MeasureOverhead = true
	}
	g, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.Cells {
		ps := c.Result.Precon
		switch c.Point.Name {
		case "precon":
			if ps.ObserveNs == 0 || ps.StepNs == 0 {
				t.Errorf("%s/%s: ObserveNs=%d StepNs=%d, both should be measured",
					c.Bench, c.Point.Name, ps.ObserveNs, ps.StepNs)
			}
		default:
			if ns := ps.EngineNs(); ns != 0 {
				t.Errorf("%s/%s: EngineNs = %d, want 0 without an engine", c.Bench, c.Point.Name, ns)
			}
		}
	}
}

// TestPreconOverheadOffByDefault: without MeasureOverhead the engine
// must not pay for the clock reads, so the counters stay zero.
func TestPreconOverheadOffByDefault(t *testing.T) {
	g, err := Run(context.Background(), smallMatrix())
	if err != nil {
		t.Fatal(err)
	}
	c := g.MustCell("compress", "precon")
	if ns := c.Result.Precon.EngineNs(); ns != 0 {
		t.Errorf("EngineNs = %d without MeasureOverhead, want 0", ns)
	}
}
