// Package mem models the memory hierarchy behind the L1 caches. It does
// for the memory side what internal/frontend did for trace supply: the
// consumers — the backend's load path, the frontend's slow-path demand
// fetch, and the preconstruction engine's stolen line fetches — ask one
// Hierarchy "this L1 miss reaches you at cycle now; when is the data
// back?" instead of reading a latency constant out of the backend
// configuration.
//
// The Hierarchy answers in one of two ways:
//
//   - By default it is the paper's §4.1 perfect L2: every request hits
//     after a fixed latency, bit for bit the pre-hierarchy model, so
//     every such experiment measures exactly what it measured before.
//   - With Config.ModelL2 it forwards to ModeledL2, a real shared,
//     set-associative L2 (built on internal/cache) with finite MSHRs, a
//     fill-bandwidth budget, and separate I-side / D-side /
//     preconstruction accounting. Behind it, memory answers after a
//     fixed miss latency. It opens the questions the flat constant
//     hides: prefetcher/demand contention, finite miss tracking, and
//     shared-level interference between the three requesters.
//
// Lookups need not arrive in cycle order — the three consumers run on
// loosely coupled clocks — so all timing state is kept as absolute
// ready-cycles, never deltas. Following the devirtualization lesson
// from the frontend decomposition (BENCH_frontend.json), the hot path
// calls no interface: consumers hold a concrete *Hierarchy bound at
// wiring time, whose Lookup is a nil check plus a direct call.
package mem

import (
	"fmt"

	"tracepre/internal/cache"
)

// Port identifies the requester behind an access, for the per-side
// accounting that makes shared-level interference observable.
type Port uint8

const (
	// IFetch is demand instruction fetch: the frontend's slow path
	// missing the L1 instruction cache while building a trace.
	IFetch Port = iota
	// Data is the backend's load/store path missing the L1 data cache.
	Data
	// Precon is the preconstruction engine: a stolen slow-path fetch
	// that missed the L1 instruction cache.
	Precon
)

func (p Port) String() string {
	switch p {
	case IFetch:
		return "ifetch"
	case Data:
		return "data"
	default:
		return "precon"
	}
}

// LevelStats counts one level's activity. Accesses are the L1 misses
// that reached the level; Misses are the ones the level itself missed
// (always zero for the perfect fixed-latency level). The per-port slices of both
// make the preconstruction engine's share of L2 pressure — pollution it
// induces and MSHRs it occupies — a measured quantity rather than an
// assumption.
type LevelStats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64 // filled lines that displaced a valid victim

	IAccesses      uint64
	IMisses        uint64
	DAccesses      uint64
	DMisses        uint64
	PreconAccesses uint64
	PreconMisses   uint64

	// MSHRMerges counts accesses that hit a line whose miss was still
	// in flight: they waited for the outstanding fill instead of
	// starting a new one (secondary misses).
	MSHRMerges uint64
	// MSHRStallCycles accumulates cycles requests waited because every
	// miss-status register was busy — the cost of finite miss tracking.
	MSHRStallCycles uint64
	// FillStallCycles accumulates cycles fills waited for the
	// fill-bandwidth budget (minimum spacing between fills).
	FillStallCycles uint64
	// PreconDenied counts engine fetches refused admission because no
	// MSHR could take the miss without stalling — back-pressure the
	// modeled level exerts on preconstruction.
	PreconDenied uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched level.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// PreconShare returns the preconstruction engine's fraction of the
// level's accesses: how much of the shared L2's traffic the paper's
// "free" idle-cycle prefetching actually generates.
func (s LevelStats) PreconShare() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.PreconAccesses) / float64(s.Accesses)
}

// count records one access on the port's counters.
func (s *LevelStats) count(p Port, miss bool) {
	s.Accesses++
	if miss {
		s.Misses++
	}
	switch p {
	case IFetch:
		s.IAccesses++
		if miss {
			s.IMisses++
		}
	case Data:
		s.DAccesses++
		if miss {
			s.DMisses++
		}
	case Precon:
		s.PreconAccesses++
		if miss {
			s.PreconMisses++
		}
	}
}

// Config selects and sizes the level behind the L1s. The zero value —
// ModelL2 false — is the paper's perfect L2 at the backend's flat
// latency.
type Config struct {
	// ModelL2 replaces the flat latency with the ModeledL2.
	ModelL2 bool

	// SizeBytes and Assoc are the modeled L2's capacity and ways; its
	// lines are l2LineBytes.
	SizeBytes int
	Assoc     int
	// MSHRs bounds outstanding misses (miss-status holding registers).
	MSHRs int
}

// The modeled L2's line and timing, which no experiment varies.
const (
	l2LineBytes = 64
	l2HitLat    = 10 // hit latency in cycles: the paper's flat L2 latency
	l2MissLat   = 40 // cycles memory takes beyond the point of lookup
	l2FillGap   = 4  // minimum cycles between fills: the fill-bandwidth budget
)

// DefaultModeledL2 returns a plausible shared L2 behind §4.1's L1s:
// 256 KiB, 8-way and 8 MSHRs, with every modeled L2's 64-byte lines,
// 10-cycle hits, 40 further cycles to memory and one fill per 4 cycles.
func DefaultModeledL2() Config {
	return Config{ModelL2: true, SizeBytes: 256 * 1024, Assoc: 8, MSHRs: 8}
}

// l2 returns the modeled L2's tag-store geometry.
func (c Config) l2() cache.Config {
	return cache.Config{SizeBytes: c.SizeBytes, LineBytes: l2LineBytes, Assoc: c.Assoc}
}

// Validate checks the configuration; the zero (fixed) config is valid.
func (c Config) Validate() error {
	if !c.ModelL2 {
		return nil
	}
	if err := c.l2().Validate(); err != nil {
		return fmt.Errorf("mem: L2 geometry: %w", err)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("mem: MSHRs %d", c.MSHRs)
	}
	return nil
}

// mshr is one miss-status holding register: the line whose fill is in
// flight and the cycle the fill completes.
type mshr struct {
	line  uint32
	ready uint64
}

// ModeledL2 is a shared set-associative L2 with finite MSHRs and a
// fill-bandwidth budget. Contents are line tags (internal/cache); a
// miss allocates an MSHR — stalling until one retires when all are in
// flight — waits out the fill-bandwidth gap, and completes after
// l2MissLat further cycles. An access to a line whose fill is still in
// flight merges with the outstanding MSHR instead of re-requesting.
type ModeledL2 struct {
	c        *cache.Cache
	mshrs    []mshr
	fillFree uint64 // next cycle the fill path can start a fill
	stats    LevelStats
}

// NewModeledL2 builds the modeled level from the configuration.
func NewModeledL2(cfg Config) (*ModeledL2, error) {
	if !cfg.ModelL2 {
		return nil, fmt.Errorf("mem: NewModeledL2 with ModelL2 unset")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := cache.New(cfg.l2())
	if err != nil {
		return nil, err
	}
	return &ModeledL2{c: c, mshrs: make([]mshr, cfg.MSHRs)}, nil
}

// Lookup performs one shared-L2 access at cycle now.
func (l *ModeledL2) Lookup(p Port, addr uint32, now uint64) uint64 {
	line := l.c.LineAddr(addr)
	if l.c.Access(line) {
		l.stats.count(p, false)
		// Resident, but possibly still in flight from an earlier miss:
		// merge with the outstanding fill.
		for i := range l.mshrs {
			if l.mshrs[i].line == line && l.mshrs[i].ready > now {
				l.stats.MSHRMerges++
				return l.mshrs[i].ready
			}
		}
		return now + l2HitLat
	}
	l.stats.count(p, true)

	// Allocate an MSHR: a free one if available, else stall until the
	// earliest outstanding fill retires.
	slot, minReady := -1, ^uint64(0)
	for i := range l.mshrs {
		if l.mshrs[i].ready <= now {
			slot = i
			break
		}
		if l.mshrs[i].ready < minReady {
			slot, minReady = i, l.mshrs[i].ready
		}
	}
	start := now
	if l.mshrs[slot].ready > now {
		l.stats.MSHRStallCycles += minReady - now
		start = minReady
	}
	// Fill bandwidth: fills keep at least l2FillGap cycles apart.
	if l.fillFree > start {
		l.stats.FillStallCycles += l.fillFree - start
		start = l.fillFree
	}
	ready := start + l2HitLat + l2MissLat
	l.fillFree = start + l2FillGap
	l.mshrs[slot] = mshr{line: line, ready: ready}
	return ready
}

// CanAcceptMiss reports whether a miss arriving at cycle now would find
// a free MSHR — the admission probe the slow-path port uses to refuse
// engine fetches instead of letting prefetches stall demand's miss
// tracking.
func (l *ModeledL2) CanAcceptMiss(now uint64) bool {
	for i := range l.mshrs {
		if l.mshrs[i].ready <= now {
			return true
		}
	}
	return false
}

// noteDenied counts a refused engine fetch.
func (l *ModeledL2) noteDenied() { l.stats.PreconDenied++ }

// Stats returns a copy of the counters, folding in the backing cache's
// eviction count.
func (l *ModeledL2) Stats() LevelStats {
	s := l.stats
	s.Evictions = l.c.Stats().Evictions
	return s
}

// Hierarchy is the level behind the L1s, bound concretely so the three
// hot paths pay a nil check and a direct (inlinable) call instead of an
// interface dispatch. Without a modeled L2 it is the paper's perfect
// L2: every request hits after a fixed latency, so it cannot miss, be
// polluted, or run out of miss-tracking resources — exactly the legacy
// constant, with per-port accounting added.
type Hierarchy struct {
	modeled *ModeledL2 // nil: the fixed-latency level
	lat     uint64     // the fixed level's latency
	stats   LevelStats // the fixed level's counters
}

// New wires the hierarchy: the modeled L2 when cfg.ModelL2 is set,
// otherwise the fixed level at fixedLat (the backend's flat L2 latency).
func New(cfg Config, fixedLat int) (*Hierarchy, error) {
	if !cfg.ModelL2 {
		return &Hierarchy{lat: uint64(fixedLat)}, nil
	}
	l2, err := NewModeledL2(cfg)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{modeled: l2}, nil
}

// Lookup performs one access on the wired level.
func (h *Hierarchy) Lookup(p Port, addr uint32, now uint64) uint64 {
	if h.modeled != nil {
		return h.modeled.Lookup(p, addr, now)
	}
	h.stats.count(p, false)
	return now + h.lat
}

// Latency is Lookup expressed as a miss penalty: the cycles beyond now
// until the data is back.
func (h *Hierarchy) Latency(p Port, addr uint32, now uint64) uint64 {
	return h.Lookup(p, addr, now) - now
}

// AdmitPrecon reports whether an engine-side miss arriving at now may
// proceed. The fixed level always admits (it has no miss tracking to
// exhaust); the modeled level refuses — and counts the refusal — when
// every MSHR is in flight.
func (h *Hierarchy) AdmitPrecon(now uint64) bool {
	if h.modeled == nil {
		return true
	}
	if h.modeled.CanAcceptMiss(now) {
		return true
	}
	h.modeled.noteDenied()
	return false
}

// Stats returns the wired level's counters.
func (h *Hierarchy) Stats() LevelStats {
	if h.modeled != nil {
		return h.modeled.Stats()
	}
	return h.stats
}
