package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/preproc"
	"tracepre/internal/trace"
)

// refScratch is dispatchReference's per-trace working state.
type refScratch struct {
	order     [16]int
	fusedOf   [16]int
	prevStore [16]int
	loadFloor [16]uint64
	doneOf    [16]uint64
	issued    [16]bool
	writer    [isa.NumRegs]int8 // reg -> producing slot in this trace, -1 none
	storeWords
}

// dispatchReference is the issue model as a plain cycle-by-cycle scan:
// on every cycle, every issue candidate rescans the earlier slots of its
// trace (producerOf) to find the producer of each source register, and
// a preprocessed trace is preprocessed again on every dispatch. It is
// the oracle for dispatch, which issues in event time from its group's
// per-trace analysis; TestDispatchMatchesReference requires the two to
// agree exactly. The issue logic is the dispatch of the original
// model, except that issue cycles live in a local array: only the
// fused-operand case of readyAt read them, and fused consumers issue
// with their producer without calling readyAt.
func (b *backend) dispatchReference(tr *trace.Trace, dyns []emulator.Dyn, ready uint64, preprocessed bool) (retire, resolve uint64) {
	pe := int(b.k) % numPEs
	b.k++
	start := ready
	if b.peFree[pe] > start {
		start = b.peFree[pe]
	}

	var opt *preproc.Info
	if preprocessed {
		opt = preproc.Optimize(tr)
	}

	n := tr.Len()
	scr := new(refScratch)
	// Priority order: program order, or the fill unit's schedule.
	order := scr.order[:n]
	for i := range order {
		order[i] = i
	}
	window := lookahead
	if opt != nil {
		for i, idx := range opt.Order {
			order[i] = int(idx)
		}
		window = n // the schedule already sees the whole window
	}

	// fusedOf[i] = consumer fused onto producer i, or -1.
	fusedOf := scr.fusedOf[:n]
	for i := range fusedOf {
		fusedOf[i] = -1
	}
	if opt != nil {
		for j, p := range opt.FusedWith {
			if p >= 0 {
				fusedOf[p] = j
			}
		}
	}

	// writer[r] = last slot in this trace writing register r, -1 none.
	writer := &scr.writer
	for r := range writer {
		writer[r] = -1
	}
	for i, in := range tr.Insts {
		if rd, w := in.WritesReg(); w {
			writer[rd] = int8(i)
		}
	}

	// Memory dependences: prevStore[i] is the slot of the latest
	// earlier in-trace store to the same word as load i (-1 if none);
	// loadFloor[i] is the completion cycle of the youngest in-flight
	// store from earlier traces to that word (the ARB state is fixed
	// for the duration of this trace — stores publish at the end).
	prevStore := scr.prevStore[:n]
	loadFloor := scr.loadFloor[:n]
	scr.storeN = 0
	for i, in := range tr.Insts {
		prevStore[i] = -1
		loadFloor[i] = 0
		switch in.Op {
		case isa.OpLoad:
			if j, ok := scr.lastStoreTo(dyns[i].MemAddr &^ 3); ok {
				prevStore[i] = j
				b.arbForwards++
			} else if ar := b.arbReady(dyns[i].MemAddr); ar > start {
				loadFloor[i] = ar
				b.arbForwards++
			}
		case isa.OpStore:
			scr.noteStore(dyns[i].MemAddr&^3, i)
		}
	}
	// firstWriter resolves whether a read at slot i sees an external
	// value or an in-trace producer: the last writer before i.
	producerOf := func(i int, r uint8) int {
		p := -1
		for j := 0; j < i; j++ {
			if rd, w := tr.Insts[j].WritesReg(); w && rd == r {
				p = j
			}
		}
		return p
	}

	doneOf := scr.doneOf[:n]
	var issuedAtBuf [16]uint64 // dispatch no longer keeps issue cycles
	issuedAt := issuedAtBuf[:n]
	issued := scr.issued[:n]
	for i := 0; i < n; i++ {
		doneOf[i] = 0
		issuedAt[i] = 0
		issued[i] = false
	}
	remaining := n

	readyAt := func(i int) (uint64, bool) {
		in := tr.Insts[i]
		rdy := start
		// Memory dependences through the ARB apply even to
		// constant-folded address computations.
		if in.Op == isa.OpLoad {
			if j := prevStore[i]; j >= 0 {
				if !issued[j] {
					return 0, false
				}
				if doneOf[j] > rdy {
					rdy = doneOf[j]
				}
			} else if loadFloor[i] > rdy {
				rdy = loadFloor[i]
			}
		}
		if opt != nil && opt.Folded&(1<<uint(i)) != 0 {
			return rdy, true
		}
		fusedOnto := -1
		if opt != nil && opt.FusedWith[i] >= 0 {
			fusedOnto = int(opt.FusedWith[i])
		}
		var regScratch [4]uint8
		for _, r := range in.ReadsRegs(regScratch[:0]) {
			if r == isa.RegZero {
				continue
			}
			if p := producerOf(i, r); p >= 0 {
				if !issued[p] {
					return 0, false
				}
				c := doneOf[p]
				if p == fusedOnto {
					c = issuedAt[p] // combined ALU: dependence is free
				}
				if c > rdy {
					rdy = c
				}
			} else {
				c := b.regReady[r]
				if c > start {
					c += xferLat // same-PE results complete by start (see dispatch)
				}
				if c > rdy {
					rdy = c
				}
			}
		}
		return rdy, true
	}

	lastDone := start
	resolve = start
	for c := start; remaining > 0; c++ {
		slots := issuePerPE
		unissuedSeen := 0
		for _, idx := range order {
			if issued[idx] {
				continue
			}
			unissuedSeen++
			if unissuedSeen > window || slots == 0 {
				break
			}
			if opt == nil || opt.FusedWith[idx] < 0 {
				// Fused consumers issue with their producer below.
				rdy, ok := readyAt(idx)
				if !ok || rdy > c {
					continue
				}
				issued[idx] = true
				issuedAt[idx] = c
				doneOf[idx] = c + b.latency(tr.Insts[idx].Op, dyns[idx].MemAddr, c)
				remaining--
				slots--
				if f := fusedOf[idx]; f >= 0 && !issued[f] {
					issued[f] = true
					issuedAt[f] = c
					doneOf[f] = c + b.latency(tr.Insts[f].Op, dyns[f].MemAddr, c)
					remaining--
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if doneOf[i] > lastDone {
			lastDone = doneOf[i]
		}
		if tr.Insts[i].IsControl() && doneOf[i] > resolve {
			resolve = doneOf[i]
		}
	}

	// Publish register results and store completions for later traces.
	for r, idx := range writer {
		if idx >= 0 {
			b.regReady[r] = doneOf[idx]
		}
	}
	for i, in := range tr.Insts {
		if in.Op == isa.OpStore {
			b.arbRecord(dyns[i].MemAddr, doneOf[i])
		}
	}

	retire = lastDone
	if b.retired > retire {
		retire = b.retired // in-order retirement
	}
	b.retired = retire
	b.peFree[pe] = retire
	if resolve == start {
		resolve = retire // traces with no control instruction
	}
	return retire, resolve
}

// TestDispatchMatchesReference sends random trace streams, control flow
// and r0 operands included, plain and preprocessed, through dispatch and
// through dispatchReference on two backends with identical configs,
// each with its own D-cache and memory level. Half the traces recur, so
// dispatch also runs from analyses built earlier, under other register,
// ARB and cache states, and preprocessed traces reach entries first
// built unpreprocessed and the reverse. Every trace must retire
// and resolve in the same cycle on both, and at the end the register
// stamps, the ARB, the load, miss and forwarding counters and the
// shared level's statistics must be equal. Each seed sends 48 streams
// of 48 traces behind each of the flat level and the modeled L2 at 8
// MSHRs and at 1 (where loads queue for tens of cycles).
func TestDispatchMatchesReference(t *testing.T) {
	oneMSHR := mem.DefaultModeledL2()
	oneMSHR.MSHRs = 1
	levels := []struct {
		name string
		cfg  mem.Config
	}{
		{"fixed", mem.Config{}},
		{"l2-8mshr", mem.DefaultModeledL2()},
		{"l2-1mshr", oneMSHR},
	}
	const streams, traces = 48, 48
	var loads, mshrStalls uint64 // behind the 1-MSHR level
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, lv := range levels {
			for k := 0; k < streams; k++ {
				be, ok := matchesReference(t, r, lv.cfg, traces)
				if !ok {
					t.Logf("seed %d, level %s, stream %d", seed, lv.name, k)
					return false
				}
				if lv.cfg.MSHRs == 1 {
					loads += be.loads
					mshrStalls += be.mem.Stats().MSHRStallCycles
				}
			}
		}
		return true
	}
	n := 6
	if testing.Short() || raceDetectorEnabled {
		n = 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Error(err)
	}
	t.Logf("1-MSHR level: %d loads, %d MSHR stall cycles", loads, mshrStalls)
	if mshrStalls < 10*loads {
		t.Errorf("streams too tame: %d MSHR stall cycles over %d loads; want loads queueing for tens of cycles", mshrStalls, loads)
	}
}

// matchesReference runs one stream of random traces through a fresh
// backend pair and reports whether dispatch and dispatchReference
// agreed throughout; it returns the backend under test.
func matchesReference(t *testing.T, r *rand.Rand, level mem.Config, traces int) (*backend, bool) {
	t.Helper()
	pair := func() *backend {
		return testBackendWith(t, cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}, level)
	}
	got, want := pair(), pair()
	clock := uint64(10)
	var drawn []*trace.Trace
	var drawnDyns [][]emulator.Dyn
	for k := 0; k < traces; k++ {
		var tr *trace.Trace
		var dyns []emulator.Dyn
		j := len(drawn)
		if j > 0 {
			j = r.Intn(2 * j)
		}
		if j < len(drawn) {
			tr, dyns = drawn[j], drawnDyns[j]
		} else {
			tr, dyns = randCtlTrace(r, uint32(0x1000+k*0x100))
			drawn, drawnDyns = append(drawn, tr), append(drawnDyns, dyns)
		}
		pre := r.Intn(2) == 0
		ready := clock + uint64(r.Intn(5))
		gr, gs := got.dispatch(tr, dyns, ready, pre)
		wr, ws := want.dispatchReference(tr, dyns, ready, pre)
		if gr != wr || gs != ws {
			t.Logf("trace %d (preprocessed %v): (retire, resolve) = (%d, %d), reference (%d, %d)\n%v",
				k, pre, gr, gs, wr, ws, tr.Insts)
			return got, false
		}
		clock = ready
		if r.Intn(4) == 0 {
			clock = gr + uint64(r.Intn(8)) // the frontend falls behind: idle PEs
		}
	}
	switch {
	case got.regReady != want.regReady:
		t.Logf("regReady %v, reference %v", got.regReady, want.regReady)
	case got.arbAddr != want.arbAddr || got.arbDone != want.arbDone || got.arbNext != want.arbNext:
		t.Logf("ARB differs from the reference")
	case got.loads != want.loads || got.dcacheMisses != want.dcacheMisses || got.arbForwards != want.arbForwards:
		t.Logf("loads/misses/forwards %d/%d/%d, reference %d/%d/%d",
			got.loads, got.dcacheMisses, got.arbForwards, want.loads, want.dcacheMisses, want.arbForwards)
	case got.mem.Stats() != want.mem.Stats():
		t.Logf("level stats %+v, reference %+v", got.mem.Stats(), want.mem.Stats())
	default:
		return got, true
	}
	return got, false
}
