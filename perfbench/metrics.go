package main

import "strings"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what -trace 0 reports: what a user running the
// sweep sees.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"allocs_per_kinstr", "1/kinstr"},
	{"ipc_err_pct", "%"},
}

// stepMetric names the per-point pipeline step metric. Point names
// such as tc64/pb64 become tc64_pb64.
func stepMetric(point string) string {
	return "pipeline.step_ns_per_instr." + strings.ReplaceAll(point, "/", "_")
}

// layerMetrics are what -trace 1 reports. A metric a workload has no
// layer for (the L2 on a flat-memory workload, the sampling phases on a
// full-detail one, a point it does not sweep) reads 0.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"workload.generate_s", "s"},
		{"emulator.record_ns_per_instr", "ns/instr"},
		{"emulator.stream_bytes_per_instr", "B/instr"},
		{"emulator.decode_ns_per_instr", "ns/instr"},
		{"emulator.decode_wait_ns_per_instr", "ns/instr"},
		{"trace.segment_ns_per_instr", "ns/instr"},
		{"pipeline.new_ms", "ms"},
		{"pipeline.step_ns_per_instr", "ns/instr"},
		{"pipeline.finish_ms", "ms"},
		{"precon.engine_ns_per_instr", "ns/instr"},
		{"precon.traces_built_per_kinstr", "1/kinstr"},
		{"precon.useful_ratio", "ratio"},
		{"precon.duplicate_ratio", "ratio"},
		{"preproc.delta_ns_per_instr", "ns/instr"},
		{"preproc.delta_allocs_per_kinstr", "1/kinstr"},
		{"mem.l2_miss_rate", "ratio"},
		{"mem.mshr_stall_cycles_per_kinstr", "cycles/kinstr"},
		{"mem.precon_l2_share", "ratio"},
		{"frontend.tc_hit_rate", "ratio"},
		{"frontend.pb_hit_rate", "ratio"},
		{"frontend.port_contention", "ratio"},
		{"trace.store_hit_rate", "ratio"},
		{"trace.store_slab_kib", "KiB"},
		{"sample.raw_ns_per_instr", "ns/instr"},
		{"sample.ffwarm_ns_per_instr", "ns/instr"},
		{"sample.detail_ns_per_instr", "ns/instr"},
		{"sample.raw_share", "ratio"},
		{"sample.units", "count"},
		{"harness.decode_passes", "count"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.gc_cycles", "count"},
		{"ledger.unaccounted_pct", "%"},
		{"trace.overhead_pct", "%"},
	}
	seen := map[string]bool{}
	for _, w := range workloads() {
		for _, p := range w.points {
			if name := stepMetric(p.Name); !seen[name] {
				seen[name] = true
				defs = append(defs, metricDef{name, "ns/instr"})
			}
		}
	}
	return defs
}
