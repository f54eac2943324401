package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"

	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

// tally counts checked operations (cells, or a whole traced run) and
// the ones that failed, keeping the first few failure messages.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < 8 {
			t.problems = append(t.problems, p)
		}
	}
}

// checkCell returns why one finished cell is wrong, or "" when it
// passes: the run consumed the budget, every demanded trace was
// supplied by exactly one of the trace cache, the buffers or the slow
// path, and a sampled cell has at least two measurement units with a
// finite IPC confidence interval. A full-detail cell simulates the
// budget less the trace that would have completed past it, so up to
// one maximal trace short.
func checkCell(c *harness.Cell, budget uint64) string {
	r := c.Result
	if c.Sample != nil {
		if short := budget - c.Sample.Streamed; c.Sample.Streamed > budget || short >= uint64(c.Point.Cfg.Select.MaxLen) {
			return fmt.Sprintf("streamed %d instructions, budget %d", c.Sample.Streamed, budget)
		}
		if n := len(c.Sample.Intervals); n < 2 {
			return fmt.Sprintf("%d measurement units, want at least 2", n)
		}
		if ci := c.Sample.IPCCI(); !finite(ci.Mean) || !finite(ci.Half) {
			return fmt.Sprintf("IPC interval %v ± %v is not finite", ci.Mean, ci.Half)
		}
	} else if short := budget - r.Instructions; r.Instructions > budget || short >= uint64(c.Point.Cfg.Select.MaxLen) {
		return fmt.Sprintf("simulated %d instructions, budget %d", r.Instructions, budget)
	}
	if r.TCHits+r.PreconSupplied+r.TCMisses != r.Traces {
		return fmt.Sprintf("hits %d + precon %d + misses %d != traces %d",
			r.TCHits, r.PreconSupplied, r.TCMisses, r.Traces)
	}
	return ""
}

// checkGrid runs checkCell over every cell, one operation each, and
// checks that full-detail cells replaying one stream simulated the
// same instruction count: they saw the same trace boundaries.
func checkGrid(g *harness.Grid, budget uint64) tally {
	var t tally
	type stream struct {
		bench string
		seed  int64
	}
	instrs := map[stream]uint64{}
	for i := range g.Cells {
		c := &g.Cells[i]
		p := checkCell(c, budget)
		if c.Sample == nil && p == "" {
			k := stream{c.Bench, c.Seed}
			if n, ok := instrs[k]; !ok {
				instrs[k] = c.Result.Instructions
			} else if n != c.Result.Instructions {
				p = fmt.Sprintf("simulated %d instructions, other cells of the stream %d", c.Result.Instructions, n)
			}
		}
		t.add(p == "", "%s %s/%s: %s", g.Matrix.Name, c.Bench, c.Point.Name, p)
	}
	return t
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// digest fingerprints every cell's simulated outcome, so runs of one
// seed can be checked for identical results.
func digest(g *harness.Grid) string {
	h := sha256.New()
	for i := range g.Cells {
		c := &g.Cells[i]
		fmt.Fprintf(h, "%s/%d/%s %+v\n", c.Bench, c.Seed, c.Point.Name, stripHostTime(c.Result))
		if c.Sample != nil {
			fmt.Fprintf(h, "%+v\n", *stripSampleHostTime(c.Sample))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stripHostTime zeroes the engine's measured host time
// (precon.Config.MeasureOverhead), the only Result fields that are not
// simulated quantities.
func stripHostTime(r pipeline.Result) pipeline.Result {
	r.Precon.ObserveNs, r.Precon.StepNs = 0, 0
	return r
}

func stripSampleHostTime(s *sample.Stats) *sample.Stats {
	out := *s
	out.Aggregate = stripHostTime(s.Aggregate)
	out.Intervals = make([]sample.IntervalStats, len(s.Intervals))
	for i, iv := range s.Intervals {
		iv.Res = stripHostTime(iv.Res)
		out.Intervals[i] = iv
	}
	return &out
}

// sameCell reports whether two runs of one cell simulated the same
// thing, bit for bit, host-time fields aside.
func sameCell(a, b *harness.Cell) bool {
	if !reflect.DeepEqual(stripHostTime(a.Result), stripHostTime(b.Result)) {
		return false
	}
	if (a.Sample == nil) != (b.Sample == nil) {
		return false
	}
	return a.Sample == nil || reflect.DeepEqual(stripSampleHostTime(a.Sample), stripSampleHostTime(b.Sample))
}
