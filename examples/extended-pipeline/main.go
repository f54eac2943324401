// extended-pipeline reproduces the paper's Figure 8 study for one
// benchmark under the full timing model: preconstruction alone,
// preprocessing alone, and their combination — showing that the
// combination beats the sum of its parts because the two mechanisms
// remove different bottlenecks (instruction supply vs execution
// throughput). It then dissects the combined machine's composed
// frontend (internal/frontend): which supplier answered each trace
// demand, and how the single slow-path i-cache port was shared between
// demand fetch and the preconstruction engine. Finally it swaps the
// flat perfect-L2 constant for a modeled shared L2 (internal/mem) and
// shows who the memory level actually serves: demand fetch, loads, or
// the engine's stolen line fetches.
//
//	go run ./examples/extended-pipeline [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"tracepre/internal/core"
	"tracepre/internal/mem"
)

func main() {
	bench := "vortex"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	const budget = 500_000

	ctx := context.Background()
	res, err := core.Figure8(ctx, budget, []string{bench})
	if err != nil {
		log.Fatal(err)
	}
	row := res.Rows[0]

	fmt.Printf("extended pipeline on %s (base: 256-entry trace cache, IPC %.3f)\n\n", bench, row.BaseIPC)
	bars := []struct {
		label string
		pct   float64
	}{
		{"preconstruction (128 TC + 128 PB)", row.PreconPct},
		{"preprocessing (256 TC)", row.PreprocPct},
		{"combined", row.CombinedPct},
		{"sum of parts (reference)", row.SumPct},
	}
	max := 1.0
	for _, b := range bars {
		if b.pct > max {
			max = b.pct
		}
	}
	for _, b := range bars {
		n := int(b.pct / max * 40)
		if n < 0 {
			n = 0
		}
		fmt.Printf("  %-34s |%-40s| %+.2f%%\n", b.label, strings.Repeat("#", n), b.pct)
	}
	if row.CombinedPct > row.SumPct {
		fmt.Println("\nthe combination exceeds the sum of the individual speedups:")
		fmt.Println("faster execution raises fetch pressure, which preconstruction")
		fmt.Println("relieves; better fetch keeps the preprocessed windows full.")
	}

	// Frontend composition: re-run the combined machine and read the
	// frontend's own accounting — the supplier probe chain and the
	// arbitrated slow-path port (Result.Frontend).
	cfg := core.TimingConfig(core.PreconConfig(128, 128), true)
	c2, err := core.RunBenchmark(ctx, bench, cfg, budget)
	if err != nil {
		log.Fatal(err)
	}
	fe := c2.Result.Frontend
	fmt.Println("\ncombined machine, frontend composition (Result.Frontend):")
	for _, sup := range fe.Suppliers {
		fmt.Printf("  supplier %-15s probes %7d  hits %7d  (%.1f%%)  fills %6d\n",
			sup.Name, sup.Probes, sup.Hits, sup.HitRate()*100, sup.Fills)
	}
	fmt.Printf("  slow path built %d traces (%d instrs through the i-cache)\n",
		fe.Slow.Builds, fe.Slow.Instrs)
	port := fe.Port
	fmt.Printf("  i-cache port: demand %d accesses / %d busy cycles; engine granted\n",
		port.DemandAccesses, port.DemandBusyCycles)
	fmt.Printf("  %d of %d idle cycles, denied %d requests (contention %.3f)\n",
		port.PreconFetches, port.IdleCycles, port.PreconStalls, port.Contention())

	// Memory hierarchy: the same machine with a real shared L2 behind
	// the L1s (finite MSHRs, fill bandwidth) instead of the paper's
	// flat 10-cycle constant. Result.Memory breaks the level's traffic
	// down by port — demand i-fetch, data, and the precon engine.
	mcfg := cfg.WithModeledL2(mem.DefaultModeledL2())
	c3, err := core.RunBenchmark(ctx, bench, mcfg, budget)
	if err != nil {
		log.Fatal(err)
	}
	m := c3.Result.Memory
	fmt.Println("\nsame machine with a modeled shared L2 (256KiB 8-way, 8 MSHRs):")
	fmt.Printf("  IPC %.3f (flat-L2 machine: %.3f)\n", c3.Result.IPC(), c2.Result.IPC())
	fmt.Printf("  L2: %d accesses, %d misses (rate %.3f), %d evictions\n",
		m.Accesses, m.Misses, m.MissRate(), m.Evictions)
	fmt.Printf("    i-fetch %6d accesses / %6d misses\n", m.IAccesses, m.IMisses)
	fmt.Printf("    data    %6d accesses / %6d misses\n", m.DAccesses, m.DMisses)
	fmt.Printf("    precon  %6d accesses / %6d misses (%.1f%% of L2 traffic)\n",
		m.PreconAccesses, m.PreconMisses, m.PreconShare()*100)
	fmt.Printf("  MSHR merges %d, MSHR-full stall cycles %d, fill-gap stall cycles %d\n",
		m.MSHRMerges, m.MSHRStallCycles, m.FillStallCycles)
	fmt.Printf("  engine fetches refused by MSHR back-pressure: %d\n", m.PreconDenied)
}
