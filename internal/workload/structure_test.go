package workload

import (
	"fmt"
	"sort"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
)

// TestDriverCallsSpreadAcrossPhases: the driver must contain
// Phases x CallsPerDriver direct calls, and each phase's entries must
// be spread across that phase's function range rather than clustered
// at its head.
func TestDriverCallsSpreadAcrossPhases(t *testing.T) {
	p, _ := ByName("gcc")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	mainAddr, _ := im.Lookup("main")
	fn0, _ := im.Lookup("fn0")
	// Scan the driver (from main to fn0) for jal targets.
	var targets []uint32
	for pc := mainAddr; pc < fn0; pc += isa.WordSize {
		in, _ := im.At(pc)
		if in.Op == isa.OpJal {
			targets = append(targets, in.Target)
		}
	}
	if len(targets) != p.Phases*p.CallsPerDriver {
		t.Fatalf("driver calls = %d, want %d", len(targets), p.Phases*p.CallsPerDriver)
	}
	// Per phase, the gap between first and last entry must span a
	// meaningful part of the range.
	for ph := 0; ph < p.Phases; ph++ {
		grp := targets[ph*p.CallsPerDriver : (ph+1)*p.CallsPerDriver]
		lo, hi := grp[0], grp[0]
		for _, a := range grp {
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		if hi == lo {
			t.Errorf("phase %d entries all identical", ph)
		}
	}
}

// TestJumpTablesTargetCode: every data word written by a label fixup
// (switch tables, indirect call tables) must point at a code address
// holding a valid instruction.
func TestJumpTablesTargetCode(t *testing.T) {
	p, _ := ByName("m88ksim")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, w := range im.Data {
		if w >= im.Base && w < im.End() {
			if _, ok := im.At(w); !ok {
				t.Errorf("table word 0x%x inside code range but invalid", w)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no code-pointing data words found (tables missing?)")
	}
}

// TestIndirectCallsLandOnFunctions: dynamically, every jalr must land
// exactly on a function entry.
func TestIndirectCallsLandOnFunctions(t *testing.T) {
	p, _ := ByName("li")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[uint32]bool{}
	for i := 0; i < p.NumFuncs; i++ {
		a, ok := im.Lookup(fmt.Sprintf("fn%d", i))
		if !ok {
			t.Fatalf("fn%d missing", i)
		}
		entries[a] = true
	}
	e := emulator.New(im)
	jalrs := 0
	_, err = e.Run(300_000, func(d emulator.Dyn) {
		if d.Inst.Op == isa.OpJalr {
			jalrs++
			if !entries[d.NextPC] {
				t.Fatalf("jalr at 0x%x landed at 0x%x: not a function entry", d.PC, d.NextPC)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if jalrs == 0 {
		t.Error("no indirect calls executed")
	}
}

// TestReturnsBalanceCalls: over a long run, returns track calls (no
// runaway recursion or lost returns).
func TestReturnsBalanceCalls(t *testing.T) {
	p, _ := ByName("vortex")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	e := emulator.New(im)
	var calls, rets int64
	_, err = e.Run(400_000, func(d emulator.Dyn) {
		switch d.Inst.Classify() {
		case isa.ClassCall:
			calls++
		case isa.ClassJumpInd:
			if d.Inst.Op == isa.OpJalr {
				calls++
			}
		case isa.ClassReturn:
			rets++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := calls - rets
	if depth < 0 {
		t.Errorf("more returns (%d) than calls (%d)", rets, calls)
	}
	if depth > 64 {
		t.Errorf("call depth %d suggests runaway nesting", depth)
	}
}

// TestPhaseBehaviourChangesWorkingSet: the set of functions executing
// in the first phase window must differ from a later phase's (phase
// transitions are what create the compulsory misses preconstruction
// targets).
func TestPhaseBehaviourChangesWorkingSet(t *testing.T) {
	p, _ := ByName("perl")
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var fnAddrs []uint32
	for i := 0; i < p.NumFuncs; i++ {
		a, _ := im.Lookup(fmt.Sprintf("fn%d", i))
		fnAddrs = append(fnAddrs, a)
	}
	sort.Slice(fnAddrs, func(i, j int) bool { return fnAddrs[i] < fnAddrs[j] })
	funcOf := func(pc uint32) int {
		return sort.Search(len(fnAddrs), func(k int) bool { return fnAddrs[k] > pc }) - 1
	}
	window := func(e *emulator.Emulator, n uint64) map[int]bool {
		set := map[int]bool{}
		e.Run(n, func(d emulator.Dyn) {
			if f := funcOf(d.PC); f >= 0 {
				set[f] = true
			}
		})
		return set
	}
	e := emulator.New(im)
	early := window(e, 150_000)
	e2 := emulator.New(im)
	e2.Run(450_000, nil)
	late := window(e2, 150_000)
	onlyLate := 0
	for f := range late {
		if !early[f] {
			onlyLate++
		}
	}
	if onlyLate < 5 {
		t.Errorf("late window adds only %d new functions; phases not turning over", onlyLate)
	}
}

// TestSharedPoolCalledFromMultiplePhases: the trailing shared functions
// must be reachable from more than one phase.
func TestSharedPoolCalledFromMultiplePhases(t *testing.T) {
	p, _ := ByName("gcc")
	if p.SharedFrac <= 0 {
		t.Skip("no shared pool")
	}
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sharedLo := p.NumFuncs - int(p.SharedFrac*float64(p.NumFuncs))
	firstShared, _ := im.Lookup(fmt.Sprintf("fn%d", sharedLo))
	// Count static calls into the shared pool from before it.
	callers := 0
	for pc := im.Base; pc < firstShared; pc += isa.WordSize {
		in, _ := im.At(pc)
		if in.Op == isa.OpJal && in.Target >= firstShared {
			callers++
		}
	}
	if callers < p.Phases {
		t.Errorf("only %d static calls into the shared pool", callers)
	}
}
