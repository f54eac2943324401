// Command perfbench is the repository's benchmark. It runs one of three
// fixed sweeps (see workload.go) and prints, as the last line of its
// standard output, one JSON object with the correctness verdict,
// attempted and failed operation counts, and the metrics:
//
//	perfbench -workload fig5-pb -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it repeats untraced runs, each in a fresh child
// process, for about -seconds and reports the end-to-end metrics: the
// medians over the runs, and the sampled IPC error on the workload's
// reference cells. With -trace 1 it makes one traced run that drives
// the simulator's layers itself, timing every call from outside, plus
// one untraced run to check the traced Results against, and reports the
// per-layer ledger. Build and run it through run.sh.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// minSamples is the fewest untraced runs a -trace 0 run reports a
// median over, however short -seconds is.
const minSamples = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// options are the parsed command-line flags.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	budget   uint64 // per-cell budget; the workload's own unless overridden
	out      string // directory for span files
	cpuprof  string // child runs only: write a CPU profile of the run here
}

func parseFlags(name string, args []string) (options, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	wname := fs.String("workload", "", "workload to run: fig5-pb, fig8-l2 or fig5-pb-sampled")
	seed := fs.Int64("seed", 0, "generator-seed perturbation passed to Matrix.Seeds (0: the unperturbed profiles)")
	seconds := fs.Float64("seconds", 30, "how long the untraced runs of one invocation measure")
	traced := fs.Int("trace", 0, "1: one traced run reporting per-layer metrics; 0: untraced end-to-end metrics")
	budget := fs.Uint64("budget", 0, "per-cell instruction budget (0: the workload's own)")
	programs := fs.Int("programs", 0, "generated programs per bench (0: the workload's own)")
	out := fs.String("out", ".bench_build", "directory for span files")
	cpuprof := fs.String("cpuprofile", "", "with the child subcommand: write a CPU profile of the one run to this file")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*wname)
	if err != nil {
		return options{}, err
	}
	if *traced != 0 && *traced != 1 {
		return options{}, fmt.Errorf("-trace %d: want 0 or 1", *traced)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("-seconds %v: want a positive duration", *seconds)
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *traced == 1, budget: *budget, out: *out, cpuprof: *cpuprof}
	if o.budget == 0 {
		o.budget = w.budget
	}
	if *programs < 0 {
		return options{}, fmt.Errorf("-programs %d: want a positive count", *programs)
	}
	if *programs > 0 {
		o.workload.programs = *programs
	}
	return o, nil
}

// childMain makes one untraced run and prints its runSample as JSON.
func childMain(args []string, stdout io.Writer) int {
	o, err := parseFlags("perfbench child", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var prof *os.File
	if o.cpuprof != "" {
		if prof, err = os.Create(o.cpuprof); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
	}
	s, err := measureUntraced(context.Background(), o.workload, o.seed, o.budget)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing CPU profile: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func benchMain(args []string, stdout io.Writer) int {
	o, err := parseFlags("perfbench", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	printJSON(stdout, map[string]any{"manifest": manifest(o)})
	var res result
	if o.trace {
		res, err = runTraced(ctx, o)
	} else {
		res, err = runUntraced(ctx, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printJSON(stdout, res.output())
	return 0
}

// manifest says what ran.
func manifest(o options) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload.name,
		"seed":       o.seed,
		"budget":     o.budget,
		"benches":    o.workload.benches,
		"seeds":      o.workload.seeds(o.seed),
		"cells":      len(o.workload.benches) * o.workload.programs * len(o.workload.points),
		"sampled":    o.workload.sampled,
		"trace":      o.trace,
		"workers":    workers,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   rev,
	}
}

// result is what one invocation prints last.
type result struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

// metric is one reported value with its unit.
type metric struct {
	name, unit string
	value      float64
}

func (r result) output() map[string]any {
	ms := map[string]any{}
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of plain values and finite floats reach here
	}
	fmt.Fprintln(w, string(b))
}

// runUntraced repeats untraced runs, one fresh child process each, so
// every run pays its own image generation and stream recording and
// reports its own peak RSS. It makes at least minSamples runs and stops
// close to -seconds. Every metric is the median over the runs; the line
// before the result also gives the fastest run's times. Every run of one
// seed must simulate identical results. Once the runs are done,
// ipcErrPct measures the sampled IPC error.
func runUntraced(ctx context.Context, o options, stdout io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locating own binary: %w", err)
	}
	var (
		samples []runSample
		t       tally
	)
	start := time.Now()
	for {
		// Start another run only if it would most likely end within
		// -seconds.
		elapsed := time.Since(start).Seconds()
		if n := float64(len(samples)); n >= minSamples && elapsed+elapsed/n > o.seconds {
			break
		}
		s, err := runChild(ctx, self, o)
		if err != nil {
			return result{}, err
		}
		printJSON(stdout, map[string]any{"run": len(samples), "sample": s})
		t.merge(tally{attempted: s.Attempted, failed: s.Failed, problems: s.Problems})
		if len(samples) > 0 && s.Digest != samples[0].Digest {
			t.add(false, "run %d simulated different results than run 0 of the same seed", len(samples))
		}
		samples = append(samples, s)
	}
	values := func(f func(runSample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	wall := values(func(s runSample) float64 { return s.WallS })
	setup := values(func(s runSample) float64 { return s.SetupS })
	printJSON(stdout, map[string]any{"runs": len(samples), "wall_s_min": slices.Min(wall), "setup_s_min": slices.Min(setup)})
	errPct, refChk, err := ipcErrPct(ctx, o.workload, o.budget)
	if err != nil {
		return result{}, fmt.Errorf("IPC reference: %w", err)
	}
	t.merge(refChk)
	return result{
		attempted: t.attempted,
		failed:    t.failed,
		problems:  t.problems,
		metrics: pick(endToEndMetrics, map[string]float64{
			"wall_s":            median(wall),
			"setup_s":           median(setup),
			"peak_rss_mib":      median(values(func(s runSample) float64 { return s.PeakRSSMiB })),
			"allocs_per_kinstr": median(values(func(s runSample) float64 { return float64(s.Allocs) / s.KInstr })),
			"ipc_err_pct":       errPct,
		}),
	}, nil
}

// runChild makes one untraced run in a child process and waits for it.
// Cancelling ctx kills the child.
func runChild(ctx context.Context, self string, o options) (runSample, error) {
	cmd := exec.CommandContext(ctx, self, "child",
		"-workload", o.workload.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-budget", strconv.FormatUint(o.budget, 10),
		"-programs", strconv.Itoa(o.workload.programs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runSample{}, fmt.Errorf("untraced run: %w", err)
	}
	var s runSample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return runSample{}, fmt.Errorf("untraced run output: %w", err)
	}
	return s, nil
}

// median returns the middle value (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spanPath names the span file of a traced run.
func spanPath(o options) string {
	return filepath.Join(o.out, "spans", o.workload.name+".jsonl.gz")
}
