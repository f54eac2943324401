package harness

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
	"tracepre/internal/trace"
)

// decodePasses counts decode passes over recorded streams: one per
// group. The decode-once contract — a group of N cells costs exactly
// one pass, not N — is asserted against this counter by
// TestBroadcastDecodesOnce.
var decodePasses atomic.Uint64

// DecodePasses reports how many stream decode passes have run
// process-wide.
func DecodePasses() uint64 { return decodePasses.Load() }

// RunBenchmark simulates one benchmark (with an optional generator
// seed perturbation) under the configuration for the given
// committed-instruction budget, sharing recordings through the stream
// cache. It runs the cell as a group of one, exactly as Run would.
func RunBenchmark(name string, seed int64, cfg pipeline.Config, budget uint64) (pipeline.Result, error) {
	c, err := runAlone(name, seed, cfg, budget, nil)
	return c.Result, err
}

// RunBenchmarkSampled is the sampled form of RunBenchmark: one
// benchmark, one configuration, sampled under the plan.
func RunBenchmarkSampled(name string, seed int64, cfg pipeline.Config, budget uint64, plan sample.Plan) (*sample.Stats, error) {
	c, err := runAlone(name, seed, cfg, budget, &plan)
	return c.Sample, err
}

// runAlone runs a single cell as a group of one.
func runAlone(name string, seed int64, cfg pipeline.Config, budget uint64, plan *sample.Plan) (Cell, error) {
	c := Cell{Bench: name, Seed: seed, Point: ConfigPoint{Name: "cell", Cfg: cfg}}
	st, err := stream(name, seed, budget)
	if err != nil {
		return c, fmt.Errorf("harness: %s: %w", name, err)
	}
	if err := runGroup(context.Background(), st, budget, []*Cell{&c}, plan); err != nil {
		return c, fmt.Errorf("harness: %w", err)
	}
	return c, nil
}

// runGroups partitions the grid's cells into groups that can share one
// decode and one segmentation: the same recorded stream (bench and
// seed; the budget is matrix-wide) and the same SelectConfig. Groups
// and their members come in declaration order.
func runGroups(g *Grid) [][]*Cell {
	type groupKey struct {
		bench string
		seed  int64
		sel   trace.SelectConfig
	}
	index := map[groupKey]int{}
	var groups [][]*Cell
	for i := range g.Cells {
		c := &g.Cells[i]
		k := groupKey{c.Bench, c.Seed, c.Point.Cfg.Select}
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], c)
	}
	return groups
}

// member is one cell of a running group: its simulator, and the
// sampling runner driving it when the sweep runs under a plan.
type member struct {
	sim  *pipeline.Simulator
	run  *sample.Runner // nil in full detail
	done bool           // wants no more input
}

// runGroup is the one stream driver. It runs a group of cells that
// share (bench, seed, SelectConfig) — a lone cell is a group of one —
// over a single decode and a single segmentation of their recorded
// stream st, handing each trace to every live member in lockstep while
// its instructions are still hot in cache, and fills in each cell's
// Result (and Sample under a plan). ctx is checked once per decoded
// chunk. Errors name the bench, and the cell when one cell failed.
//
// With plan nil every member runs full detail (Simulator.RunTrace).
// Under a plan every member is a sample.Runner. Members share plan,
// budget and input, so their schedules advance in lockstep and the
// first live member, the leader, decides the group's raw skips. With
// WarmModel off the group skips each fast-forward stretch without
// segmenting it and resets the segmenter at warm entry. With a
// ModelWarm tail segmentation runs continuously, keeping trace
// boundaries aligned with the full run's, and raw-stretch traces are
// withheld from every member (SkipRaw). A member that finishes early —
// budget spent, or adaptive target met — goes dormant while the rest
// keep consuming.
func runGroup(ctx context.Context, st *emulator.Stream, budget uint64, cells []*Cell, plan *sample.Plan) error {
	bench, im := cells[0].Bench, st.Image()
	var err error
	members := make([]member, len(cells))
	for i, c := range cells {
		mb := &members[i]
		cfg := c.Point.Cfg
		if plan != nil {
			cfg.FFObservePrecon = plan.ObservePrecon
		}
		if mb.sim, err = pipeline.New(im, cfg); err == nil {
			if plan == nil {
				err = mb.sim.StartChunked(budget)
			} else {
				mb.run, err = sample.NewRunner(mb.sim, *plan, budget)
			}
		}
		if err != nil {
			return fmt.Errorf("%s/%s: %w", bench, c.Point.Name, err)
		}
	}

	// Label CPU profiles (tablegen -cpuprofile) per cell, or per group.
	point := cells[0].Point.Name
	if len(cells) > 1 {
		point = fmt.Sprintf("group(%d)", len(cells))
	}
	failed := -1
	pprof.Do(ctx, pprof.Labels("bench", bench, "point", point), func(ctx context.Context) {
		failed, err = drive(ctx, st, cells[0].Point.Cfg.Select, members, plan)
	})
	if err != nil {
		if failed >= 0 {
			return fmt.Errorf("%s/%s: %w", bench, cells[failed].Point.Name, err)
		}
		return fmt.Errorf("%s: %w", bench, err)
	}

	for i, c := range cells {
		mb := &members[i]
		if mb.run == nil {
			c.Result, err = mb.sim.Finish()
		} else if c.Sample, err = mb.run.Finish(); err == nil {
			c.Result = c.Sample.Aggregate
		}
		if err != nil {
			return fmt.Errorf("%s/%s: %w", bench, c.Point.Name, err)
		}
	}
	return nil
}

// drive is runGroup's decode-segment-feed loop. On a member's error it
// returns that member's index; on a stream or context error, -1.
func drive(ctx context.Context, st *emulator.Stream, sel trace.SelectConfig, members []member, plan *sample.Plan) (int, error) {
	decodePasses.Add(1)
	cr := st.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(sel)
	segmenting := true // false inside a skipped WarmModel=false stretch
	live := len(members)
	for live > 0 {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return -1, err
		}
		for len(chunk) > 0 && live > 0 {
			var ld *sample.Runner
			if plan != nil {
				for i := range members {
					if !members[i].done {
						ld = members[i].run
						break
					}
				}
			}
			if ld != nil && !plan.WarmModel && ld.Phase() == pipeline.PhaseFastForward {
				// Every live member is in the same fast-forward
				// stretch: skip it without segmenting.
				n := min(ld.FFRemaining(), uint64(len(chunk)))
				for i := range members {
					mb := &members[i]
					if mb.done {
						continue
					}
					if err := mb.run.SkipRaw(n); err != nil {
						return i, err
					}
					if mb.done = mb.run.Done(); mb.done {
						live--
					}
				}
				chunk = chunk[n:]
				segmenting = false
				continue
			}
			if !segmenting {
				seg.Reset()
				segmenting = true
			}
			used, tr, dyns := seg.Feed(chunk)
			chunk = chunk[used:]
			if tr == nil {
				break
			}
			k := uint64(len(dyns))
			raw := ld != nil && plan.WarmModel && ld.RawFFRemaining() >= k
			for i := range members {
				mb := &members[i]
				if mb.done {
					continue
				}
				var err error
				switch {
				case mb.run == nil:
					mb.done, err = mb.sim.RunTrace(tr, dyns)
				case raw:
					err = mb.run.SkipRaw(k)
					mb.done = mb.run.Done()
				default:
					mb.done, err = mb.run.Feed(tr, dyns)
				}
				if err != nil {
					return i, err
				}
				if mb.done {
					live--
				}
			}
		}
	}
	return -1, cr.Err()
}
