// Benchmarks regenerating the paper's evaluation artifacts at reduced
// instruction budgets: one benchmark per table and figure. Run the full
// budgets with cmd/tablegen; these exist so `go test -bench=.` exercises
// every experiment end to end and reports its cost.
package tracepre

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tracepre/internal/core"
	"tracepre/internal/emulator"
	"tracepre/internal/harness"
	"tracepre/internal/pipeline"
	"tracepre/internal/sample"
)

// benchBudget keeps testing.B iterations affordable while still
// exercising warmup, phase changes and the preconstruction engine.
const benchBudget = core.SmallBudget

func BenchmarkFigure5Gcc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5(context.Background(), benchBudget, []string{"gcc"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5Go(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5(context.Background(), benchBudget, []string{"go"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5SmallWorkingSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5(context.Background(), benchBudget, []string{"compress", "ijpeg"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTables123(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Tables123(context.Background(), benchBudget, []string{"gcc", "go"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure6(context.Background(), benchBudget, core.TimingBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure8(context.Background(), benchBudget, core.TimingBenchmarks()); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-benchmark single-configuration runs, for profiling the simulator
// itself on each workload class.
func BenchmarkSimulate(b *testing.B) {
	for _, bench := range core.Benchmarks() {
		b.Run(bench, func(b *testing.B) {
			cfg := core.PreconConfig(256, 256)
			for i := 0; i < b.N; i++ {
				res, err := core.RunBenchmark(context.Background(), bench, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.Result.TCMissPerKI(), "miss/KI")
				}
			}
			b.SetBytes(int64(benchBudget))
		})
	}
}

func BenchmarkSimulateFullTiming(b *testing.B) {
	cfg := core.TimingConfig(core.PreconConfig(128, 128), true)
	for i := 0; i < b.N; i++ {
		if _, err := core.RunBenchmark(context.Background(), "gcc", cfg, benchBudget); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(benchBudget))
}

// Example-style smoke check that the bench harness agrees with the
// experiment registry.
func TestBenchCoverageMatchesExperiments(t *testing.T) {
	want := map[string]bool{"fig5": true, "tables123": true, "fig6": true, "fig8": true}
	for _, e := range core.PaperExperiments() {
		if !want[e.ID] {
			t.Errorf("paper experiment %s has no bench coverage; add a Benchmark%s", e.ID, e.ID)
		}
	}
	if len(core.PaperExperiments()) != len(want) {
		t.Errorf("paper experiment count %d != covered %d", len(core.PaperExperiments()), len(want))
	}
	fmt.Fprintln(discard{}, "ok")
}

// BenchmarkExtensions exercises the beyond-the-paper studies at reduced
// budget: the adaptive partition and the ablation sweeps.
func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.AdaptivePartitionStudy(context.Background(), benchBudget, []string{"gcc"}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.PreconAblations(context.Background(), benchBudget, []string{"vortex"}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.PredictorAblations(context.Background(), benchBudget, []string{"perl"}); err != nil {
			b.Fatal(err)
		}
	}
}

// Stream-layer throughput: functional emulation versus recording versus
// allocation-free replay of the same committed instruction stream.
// bytes/s here means committed instructions per second.
func BenchmarkStreamEmulate(b *testing.B) {
	im, err := harness.ImageSeed("gcc", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchBudget))
	for i := 0; i < b.N; i++ {
		if _, err := emulator.New(im).Run(benchBudget, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamRecord(b *testing.B) {
	im, err := harness.ImageSeed("gcc", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchBudget))
	for i := 0; i < b.N; i++ {
		st, err := emulator.Record(im, benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(st.BytesPerInstr(), "B/instr")
		}
	}
}

func BenchmarkStreamReplay(b *testing.B) {
	im, err := harness.ImageSeed("gcc", 0)
	if err != nil {
		b.Fatal(err)
	}
	st, err := emulator.Record(im, benchBudget)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchBudget))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp := st.Replay()
		for {
			if _, ok := rp.Next(); !ok {
				break
			}
		}
		if err := rp.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Mode measures the end-to-end Figure 5 sweep over gcc
// and go.
func BenchmarkFigure5Mode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5(context.Background(), benchBudget, []string{"gcc", "go"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTCBaseline is an end-to-end trace-cache sizing sweep —
// the PB=0 curve of Figure 5 — run cell by cell through RunBenchmark.
// The stream cache is reset each iteration so the sweep pays its one
// recording per benchmark; every sweep point after that replays. This
// isolates the stream layer from the preconstruction engine, whose
// per-config work no amount of replay can share.
func BenchmarkSweepTCBaseline(b *testing.B) {
	benches := []string{"gcc", "go"}
	for i := 0; i < b.N; i++ {
		harness.ResetStreamCache()
		for _, bench := range benches {
			for _, tc := range core.Figure5TCSizes {
				if _, err := core.RunBenchmark(context.Background(), bench, core.BaselineConfig(tc), benchBudget); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure5Harness compares the declarative sweep engine against
// a hand-rolled fan-out replicating the pre-harness driver: the same
// Figure 5 cells dispatched over one goroutine per CPU with no Matrix,
// Grid or progress machinery. Both run replay-on against a warm stream
// cache, so the delta is pure orchestration overhead (BENCH_harness.json
// records the ratio; the harness must stay within 2%).
func BenchmarkFigure5Harness(b *testing.B) {
	benches := []string{"gcc", "go"}
	// Cells of the fig5 matrix: every (bench, tc, pb) the driver sweeps.
	type cell struct {
		bench  string
		tc, pb int
	}
	var cells []cell
	for _, pb := range core.Figure5PBSizes {
		for _, tc := range core.Figure5TCSizes {
			if pb >= 256 && tc >= 1024 {
				continue
			}
			for _, bench := range benches {
				cells = append(cells, cell{bench, tc, pb})
			}
		}
	}
	// Warm the stream cache once, and record the legacy side's streams,
	// so neither side measures recording.
	if _, err := core.Figure5(context.Background(), benchBudget, benches); err != nil {
		b.Fatal(err)
	}
	streams := map[string]*emulator.Stream{}
	for _, bench := range benches {
		im, err := harness.ImageSeed(bench, 0)
		if err != nil {
			b.Fatal(err)
		}
		if streams[bench], err = emulator.Record(im, benchBudget); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("harness", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Figure5(context.Background(), benchBudget, benches); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var (
				wg       sync.WaitGroup
				errMu    sync.Mutex
				firstErr error
			)
			next := make(chan int)
			workers := runtime.GOMAXPROCS(0)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range next {
						c := cells[j]
						cfg := core.BaselineConfig(c.tc)
						if c.pb > 0 {
							cfg = core.PreconConfig(c.tc, c.pb)
						}
						st := streams[c.bench]
						sim, err := pipeline.New(st.Image(), cfg)
						if err == nil {
							_, err = sim.RunStream(st, benchBudget)
						}
						if err != nil {
							errMu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							errMu.Unlock()
						}
					}
				}()
			}
			for j := range cells {
				next <- j
			}
			close(next)
			wg.Wait()
			if firstErr != nil {
				b.Fatal(firstErr)
			}
		}
	})
}

// BenchmarkFigure5Precon is the precon-dominated Figure 5 sweep: only
// the preconstruction cells (PB > 0), run serially against a warm
// stream cache so neither recording nor replay decoding is measured —
// what remains is dominated by the preconstruction engine's
// per-instruction and per-region work (BENCH_precon.json records the
// before/after of the hot-path overhaul against this benchmark).
func BenchmarkFigure5Precon(b *testing.B) {
	benches := []string{"gcc", "go"}
	type cell struct {
		bench  string
		tc, pb int
	}
	var cells []cell
	for _, pb := range core.Figure5PBSizes {
		if pb == 0 {
			continue
		}
		for _, tc := range core.Figure5TCSizes {
			if pb >= 256 && tc >= 1024 {
				continue
			}
			for _, bench := range benches {
				cells = append(cells, cell{bench, tc, pb})
			}
		}
	}
	// Warm the stream cache once so the sweep never records.
	for _, bench := range benches {
		if _, err := core.RunBenchmark(context.Background(), bench, core.PreconConfig(256, 256), benchBudget); err != nil {
			b.Fatal(err)
		}
	}
	instrs := int64(len(cells)) * int64(benchBudget)
	b.SetBytes(instrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := core.RunBenchmark(context.Background(), c.bench, core.PreconConfig(c.tc, c.pb), benchBudget); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure5Broadcast is the Figure 5 PB>0 multi-cell sweep —
// the same 18 cells as BenchmarkFigure5Precon — dispatched through the
// harness's group driver. Per benchmark all 9 PB>0 points share one
// recorded stream and one SelectConfig, so the sweep decodes and
// segments gcc and go once each and steps the 9 member simulators in
// lockstep over every trace. Warm stream cache, so recording is never
// measured.
func BenchmarkFigure5Broadcast(b *testing.B) {
	benches := []string{"gcc", "go"}
	m := harness.Matrix{Name: "fig5-pb", Benches: benches, Budget: benchBudget, Points: figure5PBPoints()}
	ctx := context.Background()
	// Warm the stream cache once so the timed loop never records.
	if _, err := harness.Run(ctx, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(benches)) * int64(len(m.Points)) * int64(benchBudget))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(ctx, m); err != nil {
			b.Fatal(err)
		}
	}
}

// figure5PBPoints builds the 18-cell PB>0 configuration grid the
// Figure 5 sweep benchmarks share.
func figure5PBPoints() []harness.ConfigPoint {
	var pts []harness.ConfigPoint
	for _, pb := range core.Figure5PBSizes {
		if pb == 0 {
			continue
		}
		for _, tc := range core.Figure5TCSizes {
			if pb >= 256 && tc >= 1024 {
				continue
			}
			pts = append(pts, harness.ConfigPoint{
				Name: fmt.Sprintf("tc%d/pb%d", tc, pb),
				Cfg:  core.PreconConfig(tc, pb),
			})
		}
	}
	return pts
}

// medianIPCErrPct returns the median per-cell IPC error of a sampled
// grid against its full-detail reference.
func medianIPCErrPct(full, sampled *harness.Grid) float64 {
	errs := make([]float64, 0, len(sampled.Cells))
	for j := range sampled.Cells {
		s := &sampled.Cells[j]
		f := full.MustCellSeed(s.Bench, s.Seed, s.Point.Name)
		errs = append(errs, harness.SampledErrorPct(harness.IPC, f, s))
	}
	sort.Float64s(errs)
	return errs[len(errs)/2]
}

// BenchmarkFigure5Sampled is the Figure 5 PB>0 sweep — the same 18
// cells as BenchmarkFigure5Broadcast — run full-detail versus under
// statistically sampled simulation (internal/sample, budget-derived
// plan). At this smoke-scale budget the plan is at its smallest —
// 32 tiny measurement units, warm tails halved down with them — so the
// speedup and error here are the floor, not the headline; the
// paper-scale economics live in BenchmarkFigure5PaperScale. The
// sampled side reports the median IPC error of its cells against the
// full-detail reference (BENCH_sampling.json records the interleaved
// ABBA wall-clock ratio and the error).
func BenchmarkFigure5Sampled(b *testing.B) {
	benches := []string{"gcc", "go"}
	m := harness.Matrix{Name: "fig5-pb-sampled", Benches: benches, Budget: benchBudget, Points: figure5PBPoints()}
	ctx := context.Background()
	plan := sample.PlanForBudget(benchBudget)
	// Full-detail reference grid; also warms the stream cache so
	// neither timed mode measures recording.
	full, err := harness.Run(ctx, m)
	if err != nil {
		b.Fatal(err)
	}
	instrs := int64(len(benches)) * int64(len(m.Points)) * int64(benchBudget)

	b.Run("full", func(b *testing.B) {
		b.SetBytes(instrs)
		for i := 0; i < b.N; i++ {
			if _, err := harness.Run(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		b.SetBytes(instrs)
		for i := 0; i < b.N; i++ {
			g, err := harness.Run(ctx, m, harness.WithSampling(plan))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(medianIPCErrPct(full, g), "medianIPCerr%")
			}
		}
	})
}

// BenchmarkFigure5PaperScale is the paper-scale economics of sampled
// simulation on the Figure 5 PB>0 sweep. Three modes over the same 18
// cells:
//
//   - full-20M: today's practical full-detail ceiling — every
//     instruction through the detailed pipeline.
//   - sampled-20M: the same budget under the budget-derived plan. At
//     20M the plan keeps the full-size units and warm tails
//     (20k detail / 30k warm / 240k model-warm) and stretches the skip
//     until ~20 units fit, so most of the stream is a raw decode-once
//     stretch shared by the group. Reports the median IPC
//     error against full-20M — this is the ≥5x-at-≤2% headline.
//   - sampled-200M: the paper's actual per-benchmark instruction count.
//     The claim worth keeping: a 200M-instruction sampled sweep costs
//     less wall clock than the 20M full-detail sweep it replaces.
//
// Stream caches for both budgets are warmed before timing, so no mode
// measures recording.
func BenchmarkFigure5PaperScale(b *testing.B) {
	const fullBudget = 20_000_000
	const paperBudget = 200_000_000
	benches := []string{"gcc", "go"}
	pts := figure5PBPoints()
	mFull := harness.Matrix{Name: "fig5-pb-20M", Benches: benches, Budget: fullBudget, Points: pts}
	mPaper := harness.Matrix{Name: "fig5-pb-200M", Benches: benches, Budget: paperBudget, Points: pts}
	ctx := context.Background()

	// Full-detail reference grid at 20M: the error baseline, and the
	// 20M stream-cache warmer.
	full, err := harness.Run(ctx, mFull)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the 200M stream cache with a throwaway sampled run.
	if _, err := harness.Run(ctx, mPaper, harness.WithSampling(sample.PlanForBudget(paperBudget))); err != nil {
		b.Fatal(err)
	}
	cells := int64(len(benches)) * int64(len(pts))

	b.Run("full-20M", func(b *testing.B) {
		b.SetBytes(cells * fullBudget)
		for i := 0; i < b.N; i++ {
			if _, err := harness.Run(ctx, mFull); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled-20M", func(b *testing.B) {
		b.SetBytes(cells * fullBudget)
		plan := sample.PlanForBudget(fullBudget)
		for i := 0; i < b.N; i++ {
			g, err := harness.Run(ctx, mFull, harness.WithSampling(plan))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(medianIPCErrPct(full, g), "medianIPCerr%")
			}
		}
	})
	b.Run("sampled-200M", func(b *testing.B) {
		b.SetBytes(cells * paperBudget)
		plan := sample.PlanForBudget(paperBudget)
		for i := 0; i < b.N; i++ {
			if _, err := harness.Run(ctx, mPaper, harness.WithSampling(plan)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
