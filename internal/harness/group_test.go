package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tracepre/internal/sample"
)

// broadcastMatrix is the shape of the bit-identity check: the three
// cross-design frontend compositions — split, split+precon, adaptive —
// plus two Figure 5 storage points, all sharing one recorded gcc
// stream and one SelectConfig, so the sweep runs as one group.
func broadcastMatrix() Matrix {
	adaptive := precon(64, 64)
	adaptive.AdaptivePartition = true
	return Matrix{
		Name:    "broadcast-equiv",
		Benches: []string{"gcc"},
		Budget:  60_000,
		Points: []ConfigPoint{
			{Name: "split", Cfg: baseline(64)},
			{Name: "split-precon", Cfg: precon(64, 64)},
			{Name: "adaptive", Cfg: adaptive},
			{Name: "tc256-pb64", Cfg: precon(256, 64)},
			{Name: "tc64-pb256", Cfg: precon(64, 256)},
		},
	}
}

// mixedSelectMatrix sweeps points that disagree on SelectConfig over
// one stream: the len16 points form one group, len8 another.
func mixedSelectMatrix() Matrix {
	short := baseline(64)
	short.Select.MaxLen = 8
	return Matrix{
		Name:    "broadcast-mixed",
		Benches: []string{"compress"},
		Budget:  50_000,
		Points: []ConfigPoint{
			{Name: "len16", Cfg: baseline(64)},
			{Name: "len8", Cfg: short},
			{Name: "len16-pb", Cfg: precon(64, 64)},
		},
	}
}

// checkAgainstAlone runs the matrix and requires every cell's full
// Result — counters, cycles, nested component stats — to equal the
// same cell run alone through RunBenchmark, a group of one.
func checkAgainstAlone(t *testing.T, m Matrix) {
	t.Helper()
	g, err := Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Cells {
		c := &g.Cells[i]
		alone, err := RunBenchmark(c.Bench, c.Seed, c.Point.Cfg, m.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Result, alone) {
			t.Errorf("%s/%s: grid Result differs from the cell run alone:\ngrid  %+v\nalone %+v",
				c.Bench, c.Point.Name, c.Result, alone)
		}
	}
}

// TestBroadcastEquivalence asserts lockstep group execution is
// measurement-invisible: each member of a five-cell group matches its
// cell run alone exactly.
func TestBroadcastEquivalence(t *testing.T) {
	checkAgainstAlone(t, broadcastMatrix())
}

// TestBroadcastMixedSelect covers points whose SelectConfigs differ:
// they run as separate groups, each with its own segmentation, and
// must still match each cell run alone.
func TestBroadcastMixedSelect(t *testing.T) {
	checkAgainstAlone(t, mixedSelectMatrix())
}

// TestBroadcastDecodesOnce pins the decode-once contract against the
// decode-pass counter: a sweep costs one pass over the recorded stream
// per distinct SelectConfig, however many cells share it.
func TestBroadcastDecodesOnce(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		m    Matrix
		want uint64
	}{
		{broadcastMatrix(), 1},
		{mixedSelectMatrix(), 2},
	} {
		// Warm the stream cache so recording happens outside the window.
		if _, err := Run(ctx, c.m); err != nil {
			t.Fatal(err)
		}
		before := DecodePasses()
		if _, err := Run(ctx, c.m); err != nil {
			t.Fatal(err)
		}
		if got := DecodePasses() - before; got != c.want {
			t.Errorf("%s: sweep of %d cells took %d decode passes, want %d",
				c.m.Name, len(c.m.Points), got, c.want)
		}
	}
}

// TestBroadcastStreamCacheBytes checks decoded chunk buffers never hit
// the stream cache's encoded-bytes accounting: the cache holds
// encodings only, so a group run leaves its byte total exactly where
// recording put it.
func TestBroadcastStreamCacheBytes(t *testing.T) {
	m := broadcastMatrix()
	ctx := context.Background()
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err) // records the stream
	}
	entries, bytes := StreamCacheStats()
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err) // replay: decode must not be charged
	}
	e2, b2 := StreamCacheStats()
	if e2 != entries || b2 != bytes {
		t.Errorf("group run moved stream cache accounting: %d entries/%d bytes -> %d/%d",
			entries, bytes, e2, b2)
	}
}

// TestRunGroups checks the partition: cells group by (bench, seed,
// SelectConfig), groups and members in declaration order.
func TestRunGroups(t *testing.T) {
	short := baseline(64)
	short.Select.MaxLen = 8
	m := Matrix{
		Name:    "grouping",
		Benches: []string{"gcc", "go"},
		Seeds:   []int64{0, 1},
		Budget:  1_000,
		Points: []ConfigPoint{
			{Name: "a", Cfg: baseline(64)},
			{Name: "short", Cfg: short},
			{Name: "b", Cfg: baseline(128)},
		},
	}
	g := &Grid{Matrix: m, index: map[cellKey]int{}}
	for _, b := range m.Benches {
		for _, s := range m.seeds() {
			for _, p := range m.Points {
				g.index[cellKey{b, s, p.Name}] = len(g.Cells)
				g.Cells = append(g.Cells, Cell{Bench: b, Seed: s, Point: p})
			}
		}
	}

	groups := runGroups(g)
	if len(groups) != 8 { // 2 benches x 2 seeds x 2 SelectConfigs
		t.Fatalf("got %d groups, want 8", len(groups))
	}
	for gi, cells := range groups {
		want := []string{"a", "b"}
		if gi%2 == 1 {
			want = []string{"short"}
		}
		if len(cells) != len(want) {
			t.Fatalf("group %d: %d members, want %v", gi, len(cells), want)
		}
		for j, c := range cells {
			if c.Point.Name != want[j] {
				t.Errorf("group %d member %d is %q, want %q", gi, j, c.Point.Name, want[j])
			}
			if c.Bench != cells[0].Bench || c.Seed != cells[0].Seed ||
				c.Point.Cfg.Select != cells[0].Point.Cfg.Select {
				t.Errorf("group %d mixes streams or selection rules", gi)
			}
		}
		// Each (bench, seed) block of three cells opens two groups: the
		// len16 one at its first cell, the len8 one at its second.
		if first := 3*(gi/2) + gi%2; cells[0] != &g.Cells[first] {
			t.Errorf("group %d does not start at cell %d: groups out of declaration order", gi, first)
		}
	}
}

// countdownCtx reports cancellation from its (n+1)th Err call on: a
// driver that checks it once per chunk sees the cancellation after
// consuming exactly n chunks.
type countdownCtx struct {
	context.Context
	n, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestGroupCancelled pins cancellation on every driver path: a group
// whose context is cancelled mid-stream returns context.Canceled at the
// next chunk instead of draining the stream, in full detail and
// sampled, and reports no results.
func TestGroupCancelled(t *testing.T) {
	const budget = 100_000 // ~100 chunks
	st, err := stream("compress", 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	plan := testPlan()
	for _, p := range []*sample.Plan{nil, &plan} {
		cells := []*Cell{
			{Bench: "compress", Point: ConfigPoint{Name: "base", Cfg: baseline(64)}},
			{Bench: "compress", Point: ConfigPoint{Name: "pb64", Cfg: precon(64, 64)}},
		}
		ctx := &countdownCtx{Context: context.Background(), n: 3}
		err := runGroup(ctx, st, budget, cells, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sampled=%v: err = %v, want context.Canceled", p != nil, err)
		}
		if ctx.calls != ctx.n+1 {
			t.Errorf("sampled=%v: group checked its context %d times, want %d: it must stop within one chunk of the cancellation",
				p != nil, ctx.calls, ctx.n+1)
		}
		for _, c := range cells {
			if c.Sample != nil || c.Result.Instructions != 0 {
				t.Errorf("sampled=%v: cancelled group reported results for %s", p != nil, c.Point.Name)
			}
		}
	}
}
