// Quickstart: simulate one SPECint95-like benchmark on the trace
// processor, first with a plain trace cache and then with half the
// storage moved into preconstruction buffers, and compare miss rates.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"tracepre/internal/core"
	"tracepre/internal/stats"
)

func main() {
	const bench = "gcc"
	const budget = 1_000_000

	// A 512-entry trace cache, no preconstruction.
	ctx := context.Background()
	bc, err := core.RunBenchmark(ctx, bench, core.BaselineConfig(512), budget)
	if err != nil {
		log.Fatal(err)
	}

	// The same total storage split: 256 trace cache entries plus 256
	// preconstruction buffers.
	pc, err := core.RunBenchmark(ctx, bench, core.PreconConfig(256, 256), budget)
	if err != nil {
		log.Fatal(err)
	}
	base, pre := bc.Result, pc.Result

	t := stats.NewTable(fmt.Sprintf("%s, %d instructions", bench, budget),
		"configuration", "miss/1000 instr", "supplied by precon", "i-cache instr/KI")
	t.AddRow("512 TC", base.TCMissPerKI(), base.PreconSupplied, base.ICacheInstrsPerKI())
	t.AddRow("256 TC + 256 PB", pre.TCMissPerKI(), pre.PreconSupplied, pre.ICacheInstrsPerKI())
	fmt.Print(t.String())

	fmt.Printf("\npreconstruction reduced the trace cache miss rate by %.1f%% at equal storage\n",
		stats.Reduction(base.TCMissPerKI(), pre.TCMissPerKI()))
}
