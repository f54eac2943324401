package core_test

import (
	"context"
	"fmt"

	"tracepre/internal/core"
)

// ExampleRunBenchmark runs one benchmark twice — a plain trace cache,
// then the same storage split with preconstruction buffers — and
// compares trace supply.
func ExampleRunBenchmark() {
	ctx := context.Background()
	base, err := core.RunBenchmark(ctx, "gcc", core.BaselineConfig(512), core.SmallBudget)
	if err != nil {
		panic(err)
	}
	pre, err := core.RunBenchmark(ctx, "gcc", core.PreconConfig(256, 256), core.SmallBudget)
	if err != nil {
		panic(err)
	}
	fmt.Println("preconstruction supplied traces:", pre.Result.PreconSupplied > 0)
	fmt.Println("equal-storage miss rate reduced:", pre.Result.TCMissPerKI() < base.Result.TCMissPerKI())
	// Output:
	// preconstruction supplied traces: true
	// equal-storage miss rate reduced: true
}

// ExampleTimingConfig enables the full backend model and measures IPC.
func ExampleTimingConfig() {
	cfg := core.TimingConfig(core.PreconConfig(128, 128), true)
	c, err := core.RunBenchmark(context.Background(), "vortex", cfg, core.SmallBudget)
	if err != nil {
		panic(err)
	}
	res := c.Result
	fmt.Println("cycles charged:", res.Cycles > 0)
	fmt.Println("IPC within machine limits:", res.IPC() > 0 && res.IPC() <= 8)
	// Output:
	// cycles charged: true
	// IPC within machine limits: true
}

// ExampleExperimentByID runs a registered experiment.
func ExampleExperimentByID() {
	exp, err := core.ExperimentByID("tables123")
	if err != nil {
		panic(err)
	}
	out, err := exp.Run(context.Background(), core.SmallBudget, []string{"compress"})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(out.TableSpecs()), "tables")
	// Output:
	// 3 tables
}
