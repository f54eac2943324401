package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a -trace 0 run starts its untraced runs as child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyBudgets, with two programs per bench, keep each workload's
// self-test run to a few seconds.
var tinyBudgets = map[string]uint64{
	"fig5-pb":         20_000,
	"fig8-l2":         20_000,
	"fig5-pb-sampled": 200_000,
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches checks BENCHMARK.json names exactly the
// workloads and metrics the program has, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads: program has %v, BENCHMARK.json %v", names, listed)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for _, m := range listed {
			unit, ok := want[m.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is in BENCHMARK.json but not reported", kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s metric %s: unit %q, BENCHMARK.json %q", kind, m.Name, unit, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better %q", kind, m.Name, m.Better)
			}
			delete(want, m.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is reported but not in BENCHMARK.json", kind, name)
		}
	}
	check("end-to-end", endToEndMetrics, f.EndToEnd)
	check("per-layer", layerMetrics(), f.PerLayer)
}

type output struct {
	Correct   *bool
	Attempted *int
	Failed    *int
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

// run invokes the benchmark in-process and decodes its last line.
func run(t *testing.T, args ...string) output {
	t.Helper()
	var out bytes.Buffer
	args = append(args, "-out", t.TempDir())
	if code := benchMain(args, &out); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var o output
	if err := dec.Decode(&o); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if o.Correct == nil || o.Attempted == nil || o.Failed == nil {
		t.Fatalf("last line lacks correct/attempted/failed: %s", lines[len(lines)-1])
	}
	if !*o.Correct || *o.Failed != 0 || *o.Attempted < 1 {
		t.Fatalf("correct %v, %d of %d failed\n%s", *o.Correct, *o.Failed, *o.Attempted, out.String())
	}
	return o
}

// emitsExactly checks the output reports each defined metric once, with
// its unit, and nothing else.
func emitsExactly(t *testing.T, o output, defs []metricDef) {
	t.Helper()
	if len(o.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(o.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.name]
		if !ok || m.Value == nil {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestTinyRuns runs every workload at a tiny budget, untraced and
// traced, twice each. The untraced run must split set-up from the sweep
// and report no metric as 0; the traced run reproduces the untraced
// Results and reconciles its ledger, or it reports a failed operation.
// For one seed, ipc_err_pct and the simulated per-layer counts repeat.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			budget := strconv.FormatUint(tinyBudgets[w.name], 10)
			args := []string{"-workload", w.name, "-seed", "3", "-budget", budget, "-programs", "2", "-seconds", "0.01"}
			o := run(t, append(args, "-trace", "0")...)
			emitsExactly(t, o, endToEndMetrics)
			for _, d := range endToEndMetrics {
				if v := o.Metrics[d.name].Value; v != nil && *v <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, *v)
				}
			}
			again := run(t, append(args, "-trace", "0")...)
			if a, b := *o.Metrics["ipc_err_pct"].Value, *again.Metrics["ipc_err_pct"].Value; a != b {
				t.Errorf("ipc_err_pct: %v, then %v for the same seed", a, b)
			}
			o = run(t, append(args, "-trace", "1")...)
			emitsExactly(t, o, layerMetrics())
			if v := *o.Metrics["harness.decode_passes"].Value; v != 1 {
				t.Errorf("harness.decode_passes = %v, want 1 per group", v)
			}
			again = run(t, append(args, "-trace", "1")...)
			for _, name := range simulatedMetrics {
				if a, b := *o.Metrics[name].Value, *again.Metrics[name].Value; a != b {
					t.Errorf("%s: %v, then %v for the same seed", name, a, b)
				}
			}
		})
	}
}

// simulatedMetrics are the per-layer metrics computed from simulated
// counts alone, which must repeat exactly for a fixed seed.
var simulatedMetrics = []string{
	"emulator.stream_bytes_per_instr",
	"precon.traces_built_per_kinstr", "precon.useful_ratio", "precon.duplicate_ratio",
	"mem.l2_miss_rate", "mem.mshr_stall_cycles_per_kinstr", "mem.precon_l2_share",
	"frontend.tc_hit_rate", "frontend.pb_hit_rate", "frontend.port_contention",
	"trace.store_hit_rate", "trace.store_slab_kib",
	"sample.raw_share", "sample.units", "harness.decode_passes",
}

// TestBadArguments checks a malformed invocation exits non-zero
// without printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fig5-pb", "-trace", "2"},
		{"-workload", "fig5-pb", "-seconds", "0"},
		{"-workload", "fig5-pb", "-programs", "-1"},
	} {
		var out bytes.Buffer
		if code := benchMain(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
