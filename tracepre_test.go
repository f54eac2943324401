package tracepre

import (
	"context"
	"testing"
)

// The root package is the public API surface; these tests exercise it
// end to end the way an importing project would.

func TestPublicWorkloadAndRun(t *testing.T) {
	if len(Benchmarks()) != 8 || len(BenchmarkProfiles()) != 8 {
		t.Fatal("benchmark lists wrong")
	}
	im, err := Workload("compress")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunImage(im, BaselineConfig(64), SmallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Error("empty result")
	}
	res2, err := RunBenchmark("compress", PreconConfig(64, 32), SmallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Traces == 0 {
		t.Error("no traces")
	}
}

func TestPublicCustomProfile(t *testing.T) {
	p := BenchmarkProfiles()[2] // compress-like, small
	p.Name = "custom"
	p.Seed = 424242
	im, err := GenerateWorkload(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TimingConfig(PreconConfig(64, 64), true)
	res, err := RunImage(im, cfg, SmallBudget)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC = %f", res.IPC())
	}
}

func TestPublicAssemble(t *testing.T) {
	im, err := Assemble(`
        .org 0x1000
main:   addi r1, r0, 10
loop:   addi r2, r2, 1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunImage(im, BaselineConfig(64), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Error("assembled program did not run")
	}
}

func TestPublicExperiments(t *testing.T) {
	if len(Experiments()) < 4 {
		t.Fatal("too few experiments")
	}
	e, err := ExperimentByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(context.Background(), SmallBudget, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.TableSpecs()) == 0 {
		t.Error("experiment produced no tables")
	}
}
