package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/preproc"
	"tracepre/internal/trace"
)

// randTrace builds a random but well-formed trace (straight-line PCs,
// plausible register usage, memory ops with addresses).
func randTrace(r *rand.Rand, start uint32) (*trace.Trace, []emulator.Dyn) {
	n := 1 + r.Intn(16)
	tr := &trace.Trace{}
	var dyns []emulator.Dyn
	for i := 0; i < n; i++ {
		pc := start + uint32(i*4)
		reg := func() uint8 { return uint8(1 + r.Intn(12)) }
		var in isa.Inst
		switch r.Intn(8) {
		case 0:
			in = isa.Inst{Op: isa.OpLoad, Rd: reg(), Ra: reg(), Imm: int32(r.Intn(64) * 4)}
		case 1:
			in = isa.Inst{Op: isa.OpStore, Rb: reg(), Ra: reg(), Imm: int32(r.Intn(64) * 4)}
		case 2:
			in = isa.Inst{Op: isa.OpMul, Rd: reg(), Ra: reg(), Rb: reg()}
		case 3:
			in = isa.Inst{Op: isa.OpDiv, Rd: reg(), Ra: reg(), Rb: reg()}
		case 4:
			in = isa.Inst{Op: isa.OpShlI, Rd: reg(), Ra: reg(), Imm: int32(1 + r.Intn(4))}
		default:
			in = isa.Inst{Op: isa.OpAdd, Rd: reg(), Ra: reg(), Rb: reg()}
		}
		d := emulator.Dyn{PC: pc, Inst: in, NextPC: pc + 4}
		if in.Op == isa.OpLoad || in.Op == isa.OpStore {
			d.MemAddr = 0x40000 + uint32(r.Intn(256))*4
		}
		tr.PCs = append(tr.PCs, pc)
		tr.Insts = append(tr.Insts, in)
		dyns = append(dyns, d)
	}
	tr.Succ = start + uint32(n*4)
	return tr, dyns
}

// randCtlTrace builds a random trace that also carries what randTrace
// never emits: conditional branches, jal and jalr (which write the link
// register), jr (often through the link register, a return), lui, and
// r0 as a source or destination. Sources draw from r0-r12 and the link
// register. Half the memory operations hit a 32-word hot set, so stores
// forward to loads in the trace and through the ARB; the rest spread
// over 32 KiB, so a small D-cache misses into the shared level.
func randCtlTrace(r *rand.Rand, start uint32) (*trace.Trace, []emulator.Dyn) {
	n := 1 + r.Intn(16)
	tr := &trace.Trace{}
	var dyns []emulator.Dyn
	reg := func() uint8 {
		switch r.Intn(8) {
		case 0:
			return isa.RegZero
		case 1:
			return isa.RegLink
		}
		return uint8(1 + r.Intn(12))
	}
	for i := 0; i < n; i++ {
		pc := start + uint32(i*4)
		var in isa.Inst
		switch r.Intn(14) {
		case 0, 1:
			in = isa.Inst{Op: isa.OpLoad, Rd: reg(), Ra: reg(), Imm: int32(r.Intn(64) * 4)}
		case 2:
			in = isa.Inst{Op: isa.OpStore, Rb: reg(), Ra: reg(), Imm: int32(r.Intn(64) * 4)}
		case 3:
			in = isa.Inst{Op: isa.OpMul, Rd: reg(), Ra: reg(), Rb: reg()}
		case 4:
			in = isa.Inst{Op: isa.OpDiv, Rd: reg(), Ra: reg(), Rb: reg()}
		case 5:
			in = isa.Inst{Op: isa.OpShlI, Rd: reg(), Ra: reg(), Imm: int32(1 + r.Intn(4))}
		case 6:
			in = isa.Inst{Op: isa.OpLui, Rd: reg(), Imm: int32(r.Intn(1 << 12))}
		case 7:
			in = isa.Inst{Op: isa.OpAddI, Rd: reg(), Ra: reg(), Imm: int32(r.Intn(64))}
		case 8:
			ops := [...]isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}
			in = isa.Inst{Op: ops[r.Intn(len(ops))], Ra: reg(), Rb: reg(), Imm: 8}
		case 9:
			in = isa.Inst{Op: isa.OpJal, Target: 0x8000}
		case 10:
			in = isa.Inst{Op: isa.OpJalr, Ra: reg()}
		case 11:
			ra := uint8(isa.RegLink)
			if r.Intn(2) == 0 {
				ra = reg()
			}
			in = isa.Inst{Op: isa.OpJr, Ra: ra}
		default:
			ops := [...]isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt}
			in = isa.Inst{Op: ops[r.Intn(len(ops))], Rd: reg(), Ra: reg(), Rb: reg()}
		}
		d := emulator.Dyn{PC: pc, Inst: in, NextPC: pc + 4}
		if in.Op == isa.OpLoad || in.Op == isa.OpStore {
			if r.Intn(2) == 0 {
				d.MemAddr = 0x40000 + uint32(r.Intn(32))*4
			} else {
				d.MemAddr = 0x48000 + uint32(r.Intn(8192))*4
			}
		}
		tr.PCs = append(tr.PCs, pc)
		tr.Insts = append(tr.Insts, in)
		dyns = append(dyns, d)
	}
	tr.Succ = start + uint32(n*4)
	return tr, dyns
}

// TestQuickBackendInvariants dispatches random trace streams and checks
// the timing invariants that must hold regardless of content:
// retirement is monotone and in order, resolve never exceeds retire,
// no register is ready after the retirement just returned (so a
// same-PE result never pays the cross-PE transfer), execution can't
// beat the issue-width bound, and every instruction takes at least one
// cycle.
func TestQuickBackendInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		be := testBackend(t)
		var prevRetire uint64
		clock := uint64(10)
		for k := 0; k < 40; k++ {
			tr, dyns := randCtlTrace(r, uint32(0x1000+k*0x100))
			preprocessed := r.Intn(2) == 0
			ready := clock + uint64(r.Intn(5))
			retire, resolve := be.dispatch(tr, dyns, ready, preprocessed)
			if retire < prevRetire {
				t.Logf("seed %d: retirement went backwards: %d < %d", seed, retire, prevRetire)
				return false
			}
			if resolve > retire {
				t.Logf("seed %d: resolve %d after retire %d", seed, resolve, retire)
				return false
			}
			for reg, c := range be.regReady {
				if c > retire {
					t.Logf("seed %d: r%d ready at %d, after retire %d", seed, reg, c, retire)
					return false
				}
			}
			n := uint64(tr.Len())
			// Lower bound: the trace's own issue-width constraint
			// (fused pairs share a slot, so discount them).
			fused := uint64(0)
			if preprocessed {
				for _, fw := range preproc.Optimize(tr).FusedWith {
					if fw >= 0 {
						fused++
					}
				}
			}
			minCycles := (n - fused + issuePerPE - 1) / issuePerPE
			if retire < ready+minCycles {
				t.Logf("seed %d: retire %d beats issue-width bound %d (n=%d)", seed, retire, ready+minCycles, n)
				return false
			}
			prevRetire = retire
			clock = ready
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPreprocessedFasterInAggregate: greedy list scheduling admits
// classic anomalies (a "better" priority order can lose a cycle or two
// on particular traces), so per-trace "never slower" does not hold.
// The real property: across many random traces, preprocessing wins in
// aggregate, and any individual loss is small.
func TestPreprocessedFasterInAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var totalPlain, totalPre uint64
	worstLoss := int64(0)
	for k := 0; k < 400; k++ {
		tr, dyns := randTrace(r, 0x1000)
		run := func(pre bool) uint64 {
			be := testBackend(t)
			// Warm the D-cache so both runs see identical latencies.
			for _, d := range dyns {
				if d.MemAddr != 0 {
					be.dcache.Access(d.MemAddr)
				}
			}
			retire, _ := be.dispatch(tr, dyns, 0, pre)
			return retire
		}
		plain := run(false)
		pre := run(true)
		totalPlain += plain
		totalPre += pre
		if loss := int64(pre) - int64(plain); loss > worstLoss {
			worstLoss = loss
		}
	}
	if totalPre > totalPlain {
		t.Errorf("preprocessing slower in aggregate: %d > %d cycles", totalPre, totalPlain)
	}
	if worstLoss > 4 {
		t.Errorf("worst per-trace scheduling anomaly %d cycles; expected small", worstLoss)
	}
}
