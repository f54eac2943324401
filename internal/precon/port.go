package precon

import (
	"tracepre/internal/cache"
	"tracepre/internal/mem"
)

// PortStats counts both sides of the slow-path port: demand fetch (the
// conventional path building a missed trace) and the preconstruction
// engine stealing idle cycles. It makes the paper's "the engine uses
// only otherwise-idle i-cache port cycles" assumption measurable.
type PortStats struct {
	DemandAccesses   uint64 // demand-fetch line accesses (never denied)
	DemandMisses     uint64 // demand-fetch accesses that missed
	DemandBusyCycles uint64 // cycles the demand path held the port

	IdleCycles    uint64 // idle cycles granted to the precon engine
	PreconFetches uint64 // engine line fetches the port granted
	PreconMisses  uint64 // granted fetches that missed the i-cache
	PreconStalls  uint64 // engine fetch requests denied (budget spent)
	// PreconMemDenied counts engine fetches refused by the memory
	// hierarchy's back-pressure (a would-be L1 miss with no free MSHR
	// downstream) rather than by port arbitration. Denial does not
	// consume the unit's fetch budget. Always zero with the fixed level.
	PreconMemDenied uint64
}

// Contention returns the fraction of engine fetch requests the port
// denied: 0 means the engine never wanted more than the idle cycles it
// was granted; values near 1 mean preconstruction is port-starved.
func (s PortStats) Contention() float64 {
	asked := s.PreconFetches + s.PreconStalls
	if asked == 0 {
		return 0
	}
	return float64(s.PreconStalls) / float64(asked)
}

// SlowPathPort arbitrates the single slow-path instruction cache port
// between demand fetch and the preconstruction engine. Demand has
// absolute priority: DemandAccess is never denied and demand cycles
// never become engine budget. The engine gets the port only through
// BeginUnit — one granted fetch per work unit, where a work unit is one
// cycle the demand path provably left idle (the simulator computes idle
// cycles as retire-interval minus demand busy time before calling
// Engine.Step).
//
// The frontend uses this concrete type from this package, next to the
// engine, so the engine's fetch path is a direct call that inlines into
// the construction walk; an interface here measurably slows every
// sweep.
type SlowPathPort struct {
	ic     *cache.Cache
	mem    *mem.Hierarchy // level behind the L1
	now    uint64         // port clock, advanced by SetClock/BeginUnit
	budget int
	stats  PortStats
}

// NewSlowPathPort wraps the slow-path instruction cache in the arbiter,
// with the memory hierarchy h behind it. Both sides of the port route
// their L1 misses through h: demand misses price their fetch there
// (DemandAccess), and engine misses fill through it, subject to its
// admission back-pressure (FetchLine).
func NewSlowPathPort(ic *cache.Cache, h *mem.Hierarchy) *SlowPathPort {
	return &SlowPathPort{ic: ic, mem: h}
}

// SetClock positions the port clock: the cycle at which subsequently
// granted engine fetches are deemed to reach the hierarchy. The caller
// sets it to the start of the idle interval it is about to grant;
// BeginUnit then advances it one cycle per granted unit. The engine and
// demand clocks are loosely coupled, which the hierarchy tolerates (see
// mem.Hierarchy).
func (p *SlowPathPort) SetClock(now uint64) { p.now = now }

// Now returns the port clock.
func (p *SlowPathPort) Now() uint64 { return p.now }

// LineBytes is the line size of the instruction cache behind the port,
// which is also the prefetch caches' line.
func (p *SlowPathPort) LineBytes() int { return p.ic.Config().LineBytes }

// DemandAccess performs a demand-fetch line access at cycle now. Demand
// wins arbitration unconditionally: the access is never denied, consumes
// none of the engine's idle-cycle budget, and is never refused by the
// hierarchy's back-pressure (demand misses must be tracked; only engine
// prefetches are deniable). It reports whether the line hit the i-cache
// and, on a miss, the cycles until the backing level returns the line.
func (p *SlowPathPort) DemandAccess(line uint32, now uint64) (hit bool, missLat uint64) {
	p.stats.DemandAccesses++
	if p.ic.Access(line) {
		return true, 0
	}
	p.stats.DemandMisses++
	return false, p.mem.Latency(mem.IFetch, line, now)
}

// ChargeDemand records cycles the demand path held the port busy. Busy
// cycles are exactly the cycles the engine can never be granted.
func (p *SlowPathPort) ChargeDemand(busy uint64) {
	p.stats.DemandBusyCycles += busy
}

// BeginUnit opens one granted idle cycle: the engine may fetch at most
// one line before the next BeginUnit. The port clock advances with the
// grant, so consecutive engine fetches reach the hierarchy on
// consecutive cycles of the idle interval.
func (p *SlowPathPort) BeginUnit() {
	p.budget = 1
	p.stats.IdleCycles++
	p.now++
}

// FetchLine requests one budgeted engine line fetch. A request past the
// unit's budget is denied (granted=false; the constructor stalls and
// retries next unit) and counted as contention. A fetch that would miss
// the L1 additionally needs the hierarchy's admission (a free MSHR for
// the engine-side miss); refusal there also returns granted=false but
// keeps the unit's budget — back-pressure, not port contention. miss
// reports whether a granted access missed the i-cache; a granted miss
// fills through the hierarchy's precon side, so engine-induced L2
// pollution and MSHR occupancy are measured where they happen.
func (p *SlowPathPort) FetchLine(line uint32) (granted, miss bool) {
	if p.budget <= 0 {
		p.stats.PreconStalls++
		return false, false
	}
	// Probe, not Access: admission must be checked before the L1 fills
	// the line, or a denied fetch would spuriously hit on retry.
	if !p.ic.Probe(line) && !p.mem.AdmitPrecon(p.now) {
		p.stats.PreconMemDenied++
		return false, false
	}
	p.budget--
	p.stats.PreconFetches++
	miss = !p.ic.Access(line)
	if miss {
		p.stats.PreconMisses++
		p.mem.Lookup(mem.Precon, line, p.now)
	}
	return true, miss
}

// Stats returns a copy of the port counters.
func (p *SlowPathPort) Stats() PortStats { return p.stats }
