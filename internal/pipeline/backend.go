package pipeline

import (
	"math/bits"

	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/mem"
	"tracepre/internal/trace"
)

// The backend's geometry and latencies, which no experiment varies:
// §4.1's four PEs with 2-way issue, 2-cycle cross-PE bypass and 2-cycle
// data cache, R10000-like multiply and divide, and a lookahead that
// calibrates the preprocessing speedup.
const (
	numPEs     = 4  // processing elements
	issuePerPE = 2  // issue slots per PE per cycle
	xferLat    = 2  // extra cycles for cross-PE register results
	loadLat    = 2  // D-cache hit latency
	mulLat     = 3  // multiply latency
	divLat     = 12 // divide latency
	// lookahead is how far past the oldest unissued instruction the
	// simple PE scans for ready work. Preprocessed traces always see the
	// whole window (the fill unit's schedule did the reordering).
	lookahead = 10
)

// backend models the distributed execution engine: numPEs processing
// elements, each holding one trace (a 16-instruction window) with
// issuePerPE-way issue, full bypassing inside a PE, and global result
// buses adding xferLat cycles to cross-PE register communication.
// Traces dispatch to PEs round-robin and retire in order.
//
// Issue is cycle-accurate within a PE. An unpreprocessed trace issues
// with a small scoreboard lookahead (the simple PE can pick ready
// instructions only a few entries past the oldest unissued one).
// A preprocessed trace issues in the dependence-height schedule the fill
// unit precomputed with the whole window visible, its constant-folded
// instructions have no input dependences, and its combined-ALU pairs
// execute together — this is how preprocessing raises backend
// throughput (§6).
type backend struct {
	dcache *cache.Cache
	mem    *mem.Hierarchy // D-side of the shared level behind the L1s
	table  *analysisTable // per-trace analysis, shared by the group

	regReady [isa.NumRegs]uint64 // completion cycle of each register's last write
	peFree   [numPEs]uint64
	k        uint64 // dispatch counter for PE rotation
	retired  uint64 // in-order retirement horizon

	// The Address Resolution Buffer enforcing memory dependences
	// (Franklin & Sohi, referenced in §4.1): a load to a word with an
	// in-flight store waits for the store's completion (store-to-load
	// forwarding through the ARB). Entry i is the word address
	// arbAddr[i], stored to until cycle arbDone[i]; the addresses sit
	// apart so a lookup scans 256 bytes, not the whole buffer. arbMax
	// is the latest completion ever recorded: a trace starting at or
	// after it finds every entry complete and skips the scan.
	arbAddr [arbEntries]uint32
	arbDone [arbEntries]uint64
	arbNext int
	arbMax  uint64

	// Stats.
	dcacheMisses uint64
	loads        uint64
	arbForwards  uint64

	scr dispatchScratch
}

// dispatchScratch is per-trace working state, reused across dispatches
// so the hot path does not allocate.
type dispatchScratch struct {
	// rdy[i] is the earliest cycle slot i may issue given what has
	// issued so far; wait[i] marks its unissued in-trace producers, and
	// users[p] the slots waiting on p.
	rdy         [maxSlots]uint64
	wait, users [maxSlots]uint16
	done        [maxSlots]uint64 // completion cycle of each issued slot
	storeWords
}

// storeWords lists one trace's stores by word address; with <= 16
// entries a linear scan beats a map.
type storeWords struct {
	storeAddr [maxSlots]uint32
	storeSlot [maxSlots]int
	storeN    int
}

// lastStoreTo returns the latest in-trace store slot to a word address.
func (s *storeWords) lastStoreTo(addr uint32) (int, bool) {
	for i := s.storeN - 1; i >= 0; i-- {
		if s.storeAddr[i] == addr {
			return s.storeSlot[i], true
		}
	}
	return 0, false
}

// noteStore records a store slot for a word address.
func (s *storeWords) noteStore(addr uint32, slot int) {
	s.storeAddr[s.storeN] = addr
	s.storeSlot[s.storeN] = slot
	s.storeN++
}

// arbEntries is the ARB capacity; older stores age out.
const arbEntries = 64

// arbRecord notes a store's address and completion time.
func (b *backend) arbRecord(addr uint32, done uint64) {
	b.arbAddr[b.arbNext] = addr &^ 3
	b.arbDone[b.arbNext] = done
	b.arbNext = (b.arbNext + 1) % arbEntries
	b.arbMax = max(b.arbMax, done)
}

// arbReady returns the cycle at which a load from addr may execute:
// the latest completion among in-flight stores to the same word.
func (b *backend) arbReady(addr uint32) uint64 {
	addr &^= 3
	var latest uint64
	for i, a := range &b.arbAddr {
		if a == addr && b.arbDone[i] > latest {
			latest = b.arbDone[i]
		}
	}
	return latest
}

// newBackend wires the execution engine to its data cache, the shared
// memory level behind it and its group's trace analysis table.
func newBackend(dc *cache.Cache, h *mem.Hierarchy, t *analysisTable) *backend {
	return &backend{dcache: dc, mem: h, table: t}
}

// latency returns the execution latency of an instruction issued at
// cycle now; loads and stores access the data cache at addr and, on a
// load miss, ask the hierarchy's D-side when the line is back.
func (b *backend) latency(op isa.Op, addr uint32, now uint64) uint64 {
	switch op {
	case isa.OpMul:
		return mulLat
	case isa.OpDiv:
		return divLat
	case isa.OpLoad:
		b.loads++
		lat := uint64(loadLat)
		if !b.dcache.Access(addr) {
			b.dcacheMisses++
			lat += b.mem.Latency(mem.Data, addr, now)
		}
		return lat
	case isa.OpStore:
		// Stores retire through the memory system without stalling
		// dependents; access the cache for state/statistics. A store
		// miss still fills through the shared level (occupying an MSHR
		// when one is modeled) without adding to the store's latency.
		if !b.dcache.Access(addr) {
			b.dcacheMisses++
			b.mem.Lookup(mem.Data, addr, now)
		}
		return 1
	default:
		return 1
	}
}

// inOrder is the issue priority of an unpreprocessed trace: program
// order.
var inOrder = [maxSlots]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// dispatch executes one trace and returns its retirement cycle and the
// completion cycle of its last control-flow instruction (which gates
// mispredict redirects).
//
// Issue runs in event time. Each slot carries the earliest cycle it may
// issue and the set of its in-trace producers still unissued; a
// producer that issues clears itself from its consumers' sets and
// raises their ready cycles to its completion. Each cycle scans the
// priority order as the PE does, within the lookahead window and up to
// issuePerPE slots. A cycle that issues nothing leaves the window and
// every ready cycle as they were, so the scan jumps to the window's
// earliest ready cycle instead of stepping through the idle ones.
func (b *backend) dispatch(tr *trace.Trace, dyns []emulator.Dyn, ready uint64, preprocessed bool) (retire, resolve uint64) {
	pe := int(b.k % numPEs)
	b.k++
	start := ready
	if b.peFree[pe] > start {
		start = b.peFree[pe]
	}

	a := b.table.lookup(tr)
	n := int(a.n)
	order, window := inOrder[:n], lookahead
	var folded uint16
	if preprocessed {
		if !a.pre {
			b.table.preprocess(a, tr)
		}
		// The fill unit's schedule already saw the whole window, so
		// the lookahead never binds, and a fused consumer is never
		// scanned: it issues with its producer.
		order, window, folded = a.order[:a.heads], n, a.folded
	}

	// A source produced by an earlier trace is ready at its published
	// completion, plus xferLat across PEs; that stays fixed until this
	// trace publishes its own results. A result that completes after
	// start comes from another PE: a trace's results complete by its
	// retirement, which becomes its PE's peFree, and start is no earlier.
	// Constant-folded slots read no registers. Producers precede their
	// consumers, so users[p] is cleared before any consumer marks it.
	s := &b.scr
	for i := 0; i < n; i++ {
		s.rdy[i], s.wait[i], s.users[i] = start, 0, 0
		if folded&(1<<i) != 0 {
			continue
		}
		for _, v := range a.src[i] {
			switch {
			case v == 0:
			case v&inTrace != 0:
				p := v &^ inTrace
				s.wait[i] |= 1 << p
				s.users[p] |= 1 << i
			default:
				c := b.regReady[v]
				if c > start {
					c += xferLat
				}
				if c > s.rdy[i] {
					s.rdy[i] = c
				}
			}
		}
	}

	// Memory dependences, constant-folded address computations
	// included: a load waits for the latest earlier in-trace store to
	// its word, or else for the youngest in-flight store to it from an
	// earlier trace (the ARB, fixed until this trace publishes its
	// stores).
	s.storeN = 0
	for m := a.loads | a.stores; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		addr := dyns[i].MemAddr &^ 3
		if a.stores&(1<<i) != 0 {
			s.noteStore(addr, i)
		} else if j, ok := s.lastStoreTo(addr); ok {
			s.wait[i] |= 1 << j
			s.users[j] |= 1 << i
			b.arbForwards++
		} else if b.arbMax > start { // else every ARB store completed before the trace starts
			if ar := b.arbReady(addr); ar > start {
				if ar > s.rdy[i] {
					s.rdy[i] = ar
				}
				b.arbForwards++
			}
		}
	}

	lastDone := start
	resolve = start
	// issue starts slot i at cycle c and wakes the slots that read its
	// result.
	issue := func(i int, c uint64) {
		done := c + b.latency(tr.Insts[i].Op, dyns[i].MemAddr, c)
		s.done[i] = done
		if done > lastDone {
			lastDone = done
		}
		if a.control&(1<<i) != 0 && done > resolve {
			resolve = done
		}
		for m := s.users[i]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros16(m)
			s.wait[j] &^= 1 << i
			if done > s.rdy[j] {
				s.rdy[j] = done
			}
		}
	}
	// unissued marks the positions in the priority order still to issue.
	for c, unissued := start, uint16(1)<<len(order)-1; unissued != 0; {
		slots := issuePerPE
		seen := 0
		next := ^uint64(0)
		for m := unissued; m != 0; m &= m - 1 {
			seen++
			if seen > window || slots == 0 {
				break
			}
			k := bits.TrailingZeros16(m)
			i := int(order[k])
			if s.wait[i] != 0 {
				continue
			}
			if r := s.rdy[i]; r > c {
				next = min(next, r)
				continue
			}
			unissued &^= 1 << k
			slots--
			issue(i, c)
			if preprocessed {
				if f := a.fusedOf[i]; f >= 0 {
					issue(int(f), c)
				}
			}
		}
		switch {
		case slots < issuePerPE:
			c++
		case next == ^uint64(0):
			panic("pipeline: dispatch window holds no slot that can issue")
		default:
			c = next
		}
	}

	// Publish register results and store completions for later traces.
	for m := a.lastWrites; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		b.regReady[a.written(i)] = s.done[i]
	}
	for m := a.stores; m != 0; m &= m - 1 {
		i := bits.TrailingZeros16(m)
		b.arbRecord(dyns[i].MemAddr, s.done[i])
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
