package workload

import (
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
)

func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil || p.Name != n {
			t.Errorf("ByName(%s) = %+v, %v", n, p.Name, err)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName(nonesuch) succeeded")
	}
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range SPECint95() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileValidateErrors(t *testing.T) {
	good, _ := ByName("compress")
	mutations := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.NumFuncs = 0 },
		func(p *Profile) { p.BlockMin = 0 },
		func(p *Profile) { p.BlockMax = p.BlockMin - 1 },
		func(p *Profile) { p.TripMin = 0 },
		func(p *Profile) { p.TripMax = p.TripMin - 1 },
		func(p *Profile) { p.Phases = 0 },
		func(p *Profile) { p.PhaseLen = 0 },
		func(p *Profile) { p.SwitchWays = 3 },
		func(p *Profile) { p.SwitchWays = 1 },
		func(p *Profile) { p.CalleeWindow = 0 },
		func(p *Profile) { p.WeakBiases = nil },
		func(p *Profile) { p.LoopNestMax = -1 },
		func(p *Profile) { p.MaxExpCost = 0 },
		func(p *Profile) { p.CallsPerDriver = 0 },
	}
	for i, mut := range mutations {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: Validate = nil", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("mutation %d: Generate succeeded", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("li")
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ai, bi := a.Insts(), b.Insts()
	if len(ai) != len(bi) {
		t.Fatalf("sizes differ: %d vs %d", len(ai), len(bi))
	}
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatalf("code differs at %d", i)
		}
	}
	if len(a.Data) != len(b.Data) {
		t.Fatal("data differs")
	}
}

func TestGenerateSeedChangesProgram(t *testing.T) {
	p, _ := ByName("li")
	a, _ := Generate(p)
	p.Seed++
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ai, bi := a.Insts(), b.Insts()
	if len(ai) == len(bi) {
		same := true
		for i := range ai {
			if ai[i] != bi[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical programs")
		}
	}
}

// TestGenerateAllRunnable: every profile generates and runs 200k
// instructions without faulting, and exercises calls, returns, branches
// in both directions, and (where configured) indirect jumps.
func TestGenerateAllRunnable(t *testing.T) {
	for _, p := range SPECint95() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			im, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			e := emulator.New(im)
			var calls, rets, takenBr, notTakenBr, ind uint64
			n, err := e.Run(200_000, func(d emulator.Dyn) bool {
				switch d.Inst.Classify() {
				case isa.ClassCall:
					calls++
				case isa.ClassReturn:
					rets++
				case isa.ClassBranch:
					if d.Taken {
						takenBr++
					} else {
						notTakenBr++
					}
				case isa.ClassJumpInd:
					ind++
				}
				return true
			})
			if err != nil {
				t.Fatalf("run failed after %d: %v", n, err)
			}
			if n != 200_000 {
				t.Fatalf("program halted early at %d", n)
			}
			if calls == 0 || rets == 0 {
				t.Errorf("calls=%d rets=%d", calls, rets)
			}
			if takenBr == 0 || notTakenBr == 0 {
				t.Errorf("branches taken=%d not=%d", takenBr, notTakenBr)
			}
			if p.WSwitch > 0 && ind == 0 {
				t.Errorf("no indirect jumps despite WSwitch=%f", p.WSwitch)
			}
		})
	}
}

// TestStackBalance: the stack pointer must return to its initial value
// whenever execution is back in the driver (no leaks from mismatched
// prologue/epilogue).
func TestStackBalance(t *testing.T) {
	p, _ := ByName("perl")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	main, ok := im.Lookup("driver_top")
	if !ok {
		t.Fatal("no driver_top symbol")
	}
	e := emulator.New(im)
	initial := e.Regs[isa.RegSP]
	checked := 0
	_, err = e.Run(500_000, func(d emulator.Dyn) bool {
		if d.PC == main {
			checked++
			if e.Regs[isa.RegSP] != initial {
				t.Fatalf("sp drifted: 0x%x vs 0x%x", e.Regs[isa.RegSP], initial)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Error("driver_top never revisited")
	}
}

// TestStaticFootprints: the large benchmarks must dwarf the small ones,
// preserving the paper's working-set ordering.
func TestStaticFootprints(t *testing.T) {
	sizes := map[string]int{}
	for _, p := range SPECint95() {
		im, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p.Name] = im.NumInstrs()
	}
	for _, big := range []string{"gcc", "go", "vortex"} {
		for _, small := range []string{"compress", "ijpeg"} {
			if sizes[big] < 8*sizes[small] {
				t.Errorf("%s (%d) not >> %s (%d)", big, sizes[big], small, sizes[small])
			}
		}
	}
	if sizes["gcc"] < 15_000 {
		t.Errorf("gcc static = %d, want >= 15000", sizes["gcc"])
	}
	if sizes["compress"] > 4_000 {
		t.Errorf("compress static = %d, want <= 4000", sizes["compress"])
	}
}

// TestBranchBiasOrdering: vortex (heavily biased) must have a higher
// fraction of dynamically-consistent branches than go (weakly biased).
func TestBranchBiasOrdering(t *testing.T) {
	frac := func(name string) float64 {
		p, _ := ByName(name)
		im, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		e := emulator.New(im)
		taken := map[uint32][2]uint64{} // pc -> {taken, total}
		e.Run(300_000, func(d emulator.Dyn) bool {
			if d.Inst.IsBranch() {
				c := taken[d.PC]
				if d.Taken {
					c[0]++
				}
				c[1]++
				taken[d.PC] = c
			}
			return true
		})
		var biased, total uint64
		for _, c := range taken {
			if c[1] < 8 {
				continue
			}
			r := float64(c[0]) / float64(c[1])
			if r <= 0.1 || r >= 0.9 {
				biased += c[1]
			}
			total += c[1]
		}
		if total == 0 {
			t.Fatalf("%s: no branches", name)
		}
		return float64(biased) / float64(total)
	}
	v := frac("vortex")
	g := frac("go")
	if v <= g {
		t.Errorf("biased-branch fraction: vortex %.2f <= go %.2f", v, g)
	}
}

func TestComputeStatsOnGenerated(t *testing.T) {
	p, _ := ByName("m88ksim")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := program.ComputeStats(im)
	if s.Calls == 0 || s.Returns == 0 || s.CondBranches == 0 || s.BackBranches == 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.IndJumps == 0 {
		t.Errorf("no indirect jumps in m88ksim (WSwitch=%f)", p.WSwitch)
	}
}

func TestExpectedDriverCost(t *testing.T) {
	p, _ := ByName("li")
	c, err := ExpectedDriverCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Errorf("cost = %f", c)
	}
	if _, err := ExpectedDriverCost(Profile{}); err == nil {
		t.Error("ExpectedDriverCost on invalid profile succeeded")
	}
}

func BenchmarkGenerateGCC(b *testing.B) {
	p, _ := ByName("gcc")
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}
