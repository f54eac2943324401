package precon

import (
	"math/rand"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
)

// refStack is the start-point stack written as the paper's rules, one
// per method: a slice scanned linearly on every observed instruction,
// with splice removal. It pins the engine's stack to identical
// behavior — entry order, every stack statistic (StackCaughtUp in
// particular), and pop/flush results.
type refStack struct {
	depth   int
	entries []stackEntry
	stats   Stats
}

func (s *refStack) observe(d *emulator.Dyn) {
	for i := len(s.entries) - 1; i >= 0; i-- {
		if s.entries[i].Addr == d.PC {
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			s.stats.StackCaughtUp++
			break
		}
	}
	s.events(d, false)
}

func (s *refStack) events(d *emulator.Dyn, spec bool) {
	if d.Inst.IsCall() {
		s.push(StartPoint{Addr: d.PC + isa.WordSize, Kind: ReturnPoint}, spec)
	} else if d.Taken && d.Inst.IsBackwardBranch() {
		s.push(StartPoint{Addr: d.PC + isa.WordSize, Kind: LoopExit}, spec)
	}
}

func (s *refStack) push(sp StartPoint, spec bool) {
	if n := len(s.entries); n > 0 && s.entries[n-1].Addr == sp.Addr {
		s.stats.StackDedups++
		return
	}
	if len(s.entries) == s.depth {
		s.entries = s.entries[1:]
		s.stats.StackOverflows++
	}
	s.entries = append(s.entries, stackEntry{StartPoint: sp, spec: spec})
	s.stats.StackPushes++
	if spec {
		s.stats.SpecPushes++
	}
}

func (s *refStack) pop() (StartPoint, bool) {
	if len(s.entries) == 0 {
		return StartPoint{}, false
	}
	en := s.entries[len(s.entries)-1]
	s.entries = s.entries[:len(s.entries)-1]
	return en.StartPoint, true
}

func (s *refStack) flush() {
	kept := s.entries[:0]
	for _, en := range s.entries {
		if en.spec {
			s.stats.SpecFlushed++
			continue
		}
		kept = append(kept, en)
	}
	s.entries = kept
}

// stackStats projects the stack-related counters out of Stats.
func stackStats(s Stats) [6]uint64 {
	return [6]uint64{s.StackPushes, s.StackDedups, s.StackOverflows,
		s.StackCaughtUp, s.SpecPushes, s.SpecFlushed}
}

// randDyn synthesizes a dispatched instruction over a small address
// space so retires, dedups and overflows all occur frequently.
func randDyn(rng *rand.Rand) emulator.Dyn {
	d := emulator.Dyn{PC: uint32(rng.Intn(64)) * isa.WordSize}
	switch rng.Intn(6) {
	case 0:
		d.Inst = isa.Inst{Op: isa.OpJal}
	case 1:
		d.Inst = isa.Inst{Op: isa.OpJalr}
	case 2:
		d.Inst = isa.Inst{Op: isa.OpBeq, Imm: -16}
		d.Taken = rng.Intn(2) == 0
	case 3:
		d.Inst = isa.Inst{Op: isa.OpBne, Imm: 16}
		d.Taken = rng.Intn(2) == 0
	default:
		d.Inst = isa.Inst{Op: isa.OpAdd}
	}
	return d
}

// TestStackEquivalence drives the engine's stack and the reference side
// by side through random streams of observes, speculative observes,
// flushes and pops, checking depth, statistics and popped entries stay
// identical throughout — and that the surviving entries drain in the
// same order at the end.
func TestStackEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, buildLoopProgram(t), DefaultConfig())
		ref := &refStack{depth: r.eng.cfg.StackDepth}
		for op := 0; op < 20000; op++ {
			switch rng.Intn(20) {
			case 0:
				sp1, ok1 := r.eng.popStack()
				sp2, ok2 := ref.pop()
				if sp1 != sp2 || ok1 != ok2 {
					t.Fatalf("seed %d op %d: pop (%v,%v) vs ref (%v,%v)", seed, op, sp1, ok1, sp2, ok2)
				}
			case 1:
				r.eng.FlushSpeculation()
				ref.flush()
			case 2, 3:
				d := randDyn(rng)
				observeSpec(r.eng, d)
				ref.events(&d, true)
			default:
				d := randDyn(rng)
				observe(r.eng, d)
				ref.observe(&d)
			}
			if got, want := r.eng.StackDepth(), len(ref.entries); got != want {
				t.Fatalf("seed %d op %d: depth %d vs ref %d", seed, op, got, want)
			}
			if got, want := stackStats(r.eng.Stats()), stackStats(ref.stats); got != want {
				t.Fatalf("seed %d op %d: stats %v vs ref %v", seed, op, got, want)
			}
		}
		// Drain: surviving entries must come out in the same order.
		for {
			sp1, ok1 := r.eng.popStack()
			sp2, ok2 := ref.pop()
			if sp1 != sp2 || ok1 != ok2 {
				t.Fatalf("seed %d drain: pop (%v,%v) vs ref (%v,%v)", seed, sp1, ok1, sp2, ok2)
			}
			if !ok1 {
				break
			}
		}
	}
}

// TestStackCaughtUpRegression pins the stack-caught-up statistic on a
// deterministic stream: a call pushes its return point and execution
// arriving there must retire it, exactly once, leaving the same counts
// the pre-overhaul linear-scan stack produced.
func TestStackCaughtUpRegression(t *testing.T) {
	r := newRig(t, buildLoopProgram(t), DefaultConfig())
	call := emulator.Dyn{PC: 0x100, Inst: isa.Inst{Op: isa.OpJal}}
	ret := emulator.Dyn{PC: 0x104, Inst: isa.Inst{Op: isa.OpAdd}}
	observe(r.eng, call)
	if r.eng.StackDepth() != 1 {
		t.Fatalf("depth %d after call", r.eng.StackDepth())
	}
	observe(r.eng, ret)
	observe(r.eng, ret) // second arrival: nothing left to retire
	st := r.eng.Stats()
	if st.StackCaughtUp != 1 || r.eng.StackDepth() != 0 {
		t.Fatalf("caught-up %d depth %d, want 1 and 0", st.StackCaughtUp, r.eng.StackDepth())
	}
}
