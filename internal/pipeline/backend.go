package pipeline

import (
	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/preproc"
	"tracepre/internal/trace"
)

// backend models the distributed execution engine: NumPEs processing
// elements, each holding one trace (a 16-instruction window) with
// IssuePerPE-way issue, full bypassing inside a PE, and global result
// buses adding XferLat cycles to cross-PE register communication.
// Traces dispatch to PEs round-robin and retire in order.
//
// Issue is cycle-driven within a PE. An unpreprocessed trace issues with
// a small scoreboard lookahead (the simple PE can pick ready
// instructions only a few entries past the oldest unissued one).
// A preprocessed trace issues in the dependence-height schedule the fill
// unit precomputed with the whole window visible, its constant-folded
// instructions have no input dependences, and its combined-ALU pairs
// execute together — this is how preprocessing raises backend
// throughput (§6).
type backend struct {
	cfg    BackendConfig
	dcache *cache.Cache
	mem    *mem.Hierarchy // D-side of the shared level behind the L1s

	regReady [isa.NumRegs]regStamp
	peFree   []uint64
	k        uint64 // dispatch counter for PE rotation
	retired  uint64 // in-order retirement horizon

	// arb models the Address Resolution Buffer enforcing memory
	// dependences (Franklin & Sohi, referenced in §4.1): a load to a
	// word with an in-flight store waits for the store's completion
	// (store-to-load forwarding through the ARB).
	arb     [arbEntries]arbEntry
	arbNext int

	// Stats.
	dcacheMisses uint64
	loads        uint64
	arbForwards  uint64

	scr dispatchScratch
}

// dispatchScratch is per-trace working state, reused across dispatches
// so the hot path does not allocate. Trace selection caps traces at 16
// instructions (trace.SelectConfig.Validate), so fixed arrays suffice.
type dispatchScratch struct {
	order     [16]int
	fusedOf   [16]int
	prevStore [16]int
	loadFloor [16]uint64
	doneOf    [16]uint64
	issued    [16]bool
	writer    [isa.NumRegs]int8 // reg -> producing slot in this trace, -1 none
	// src[i] holds the in-trace producer of each source register of
	// slot i (-1 none); regFloor[i] is the cycle at which its sources
	// produced by earlier traces are ready.
	src      [16][2]int8
	regFloor [16]uint64
	// Latest in-trace store per word address; with <= 16 entries a
	// linear scan beats a map.
	storeAddr [16]uint32
	storeSlot [16]int
	storeN    int
}

// lastStoreTo returns the latest in-trace store slot to a word address.
func (s *dispatchScratch) lastStoreTo(addr uint32) (int, bool) {
	for i := s.storeN - 1; i >= 0; i-- {
		if s.storeAddr[i] == addr {
			return s.storeSlot[i], true
		}
	}
	return 0, false
}

// noteStore records a store slot for a word address.
func (s *dispatchScratch) noteStore(addr uint32, slot int) {
	s.storeAddr[s.storeN] = addr
	s.storeSlot[s.storeN] = slot
	s.storeN++
}

// arbEntries is the ARB capacity; older stores age out.
const arbEntries = 64

type arbEntry struct {
	addr uint32 // word-aligned
	done uint64 // store completion cycle
}

// arbRecord notes a store's address and completion time.
func (b *backend) arbRecord(addr uint32, done uint64) {
	b.arb[b.arbNext] = arbEntry{addr: addr &^ 3, done: done}
	b.arbNext = (b.arbNext + 1) % arbEntries
}

// arbReady returns the cycle at which a load from addr may execute:
// the latest completion among in-flight stores to the same word.
func (b *backend) arbReady(addr uint32) uint64 {
	addr &^= 3
	var latest uint64
	for _, e := range b.arb {
		if e.addr == addr && e.done > latest {
			latest = e.done
		}
	}
	return latest
}

type regStamp struct {
	cycle uint64
	pe    int
}

// newBackend wires the execution engine to its data cache and the
// shared memory level behind it.
func newBackend(cfg BackendConfig, dc *cache.Cache, h *mem.Hierarchy) *backend {
	return &backend{cfg: cfg, dcache: dc, mem: h, peFree: make([]uint64, cfg.NumPEs)}
}

// latency returns the execution latency of an instruction issued at
// cycle now; loads consult the data cache and, on a miss, ask the
// hierarchy's D-side when the line is back.
func (b *backend) latency(in isa.Inst, d emulator.Dyn, now uint64) uint64 {
	switch in.Op {
	case isa.OpMul:
		return uint64(b.cfg.MulLat)
	case isa.OpDiv:
		return uint64(b.cfg.DivLat)
	case isa.OpLoad:
		b.loads++
		lat := uint64(b.cfg.LoadLat)
		if !b.dcache.Access(d.MemAddr) {
			b.dcacheMisses++
			lat += b.mem.Latency(mem.Data, d.MemAddr, now)
		}
		return lat
	case isa.OpStore:
		// Stores retire through the memory system without stalling
		// dependents; access the cache for state/statistics. A store
		// miss still fills through the shared level (occupying an MSHR
		// when one is modeled) without adding to the store's latency.
		if !b.dcache.Access(d.MemAddr) {
			b.dcacheMisses++
			b.mem.Lookup(mem.Data, d.MemAddr, now)
		}
		return 1
	default:
		return 1
	}
}

// dispatch executes one trace and returns its retirement cycle and the
// completion cycle of its last control-flow instruction (which gates
// mispredict redirects).
func (b *backend) dispatch(tr *trace.Trace, dyns []emulator.Dyn, ready uint64, preprocessed bool) (retire, resolve uint64) {
	pe := int(b.k) % b.cfg.NumPEs
	b.k++
	start := ready
	if b.peFree[pe] > start {
		start = b.peFree[pe]
	}

	var opt *preproc.Info
	if preprocessed {
		opt, _ = tr.Opt.(*preproc.Info)
	}

	n := tr.Len()
	scr := &b.scr
	// Priority order: program order, or the fill unit's schedule.
	order := scr.order[:n]
	for i := range order {
		order[i] = i
	}
	lookahead := b.cfg.Lookahead
	if opt != nil {
		for i, idx := range opt.Order {
			order[i] = int(idx)
		}
		lookahead = n // the schedule already sees the whole window
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

	// Register dependences, resolved once for the trace. Before slot i
	// notes its own write, writer[r] is the last earlier slot writing r:
	// the in-trace producer of i's read of r. A source with no in-trace
	// producer comes from an earlier trace, whose published result (plus
	// XferLat across PEs) stays fixed until this trace publishes, so
	// regFloor[i] folds those sources into one cycle. After the pass,
	// writer[r] is the last slot in this trace writing r, -1 none.
	writer := &scr.writer
	for r := range writer {
		writer[r] = -1
	}
	src := scr.src[:n]
	regFloor := scr.regFloor[:n]
	for i, in := range tr.Insts {
		src[i] = [2]int8{-1, -1}
		regFloor[i] = 0
		var regs [2]uint8
		for k, r := range in.ReadsRegs(regs[:0]) {
			if r == isa.RegZero {
				continue
			}
			if p := writer[r]; p >= 0 {
				src[i][k] = p
				continue
			}
			st := b.regReady[r]
			c := st.cycle
			if st.pe != pe && c > start {
				c += uint64(b.cfg.XferLat)
			}
			if c > regFloor[i] {
				regFloor[i] = c
			}
		}
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

	doneOf := scr.doneOf[:n]
	issued := scr.issued[:n]
	for i := 0; i < n; i++ {
		doneOf[i] = 0
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
		if regFloor[i] > rdy {
			rdy = regFloor[i]
		}
		// A fused consumer never gets here: it issues with its producer.
		for _, p := range src[i] {
			if p < 0 {
				continue
			}
			if !issued[p] {
				return 0, false
			}
			if doneOf[p] > rdy {
				rdy = doneOf[p]
			}
		}
		return rdy, true
	}

	lastDone := start
	resolve = start
	for c := start; remaining > 0; c++ {
		slots := b.cfg.IssuePerPE
		unissuedSeen := 0
		for _, idx := range order {
			if issued[idx] {
				continue
			}
			unissuedSeen++
			if unissuedSeen > lookahead || slots == 0 {
				break
			}
			if opt == nil || opt.FusedWith[idx] < 0 {
				// Fused consumers issue with their producer below.
				rdy, ok := readyAt(idx)
				if !ok || rdy > c {
					continue
				}
				issued[idx] = true
				doneOf[idx] = c + b.latency(tr.Insts[idx], dyns[idx], c)
				remaining--
				slots--
				if f := fusedOf[idx]; f >= 0 && !issued[f] {
					issued[f] = true
					doneOf[f] = c + b.latency(tr.Insts[f], dyns[f], c)
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
			b.regReady[r] = regStamp{cycle: doneOf[idx], pe: pe}
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
