package tracecache

import (
	"fmt"

	"tracepre/internal/trace"
)

// Adaptive is a unified trace store that dynamically partitions its
// entries between the primary trace cache and the preconstruction
// buffers. The paper observes (§5.1) that gcc wants most of the area
// in the trace cache while go wants a large buffer, and suggests that
// "a design that dynamically allocates space for the preconstruction
// buffer may need to be used ... this could likely be done"; Adaptive
// is that design.
//
// Every entry carries a role (trace-cache or buffer). Lookups and
// insertions go through role-specific views so the frontend protocol
// (probe the trace cache, then consume from the buffers) is unchanged;
// a buffer hit flips the entry's role in place instead of copying.
// A feedback loop compares how much the buffers are supplying against
// how much demand still misses, and moves the target buffer share up
// or down each epoch.
type Adaptive struct {
	cfg     Config
	sets    [][]aline
	setMask uint32
	clock   uint64

	targetPB float64 // target fraction of entries in buffer role
	pbCount  int     // entries currently in buffer role

	// Epoch feedback (hill climbing on the epoch miss rate).
	epochLen   uint64
	epochTicks uint64
	epochPB    uint64 // traces supplied by the buffers this epoch
	epochMiss  uint64 // demand misses this epoch
	adjusts    uint64
	warmup     int     // epochs to skip while the store fills
	dir        float64 // current search direction (+/- adaptiveStep)
	prevMiss   float64 // previous epoch's miss rate (-1: none yet)

	stats   Stats // trace-cache-view stats
	pbStats Stats // buffer-view stats
}

type aline struct {
	id     trace.ID
	tr     *trace.Trace
	valid  bool
	precon bool // buffer role
	lru    uint64
	region uint64
}

// Partition-share bounds and step for the feedback loop.
const (
	adaptiveMinShare = 0.0625
	adaptiveMaxShare = 0.5
	adaptiveStep     = 0.0625
	adaptiveEpoch    = 16384
	adaptiveWarmup   = 2 // epochs ignored while the store fills
)

// NewAdaptive builds an adaptive store with cfg.Entries total entries
// (the sum the fixed design would split statically).
func NewAdaptive(cfg Config) (*Adaptive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.Entries / cfg.Assoc
	backing := make([]aline, cfg.Entries)
	sets := make([][]aline, numSets)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Adaptive{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint32(numSets - 1),
		targetPB: 0.25,
		epochLen: adaptiveEpoch,
		warmup:   adaptiveWarmup,
		dir:      adaptiveStep,
		prevMiss: -1,
	}, nil
}

func (a *Adaptive) set(id trace.ID) []aline {
	return a.sets[id.Hash()&a.setMask]
}

// PBShare returns the current fraction of entries in buffer role.
func (a *Adaptive) PBShare() float64 {
	return float64(a.pbCount) / float64(a.cfg.Entries)
}

// TargetPBShare returns the feedback loop's current target.
func (a *Adaptive) TargetPBShare() float64 { return a.targetPB }

// Adjustments returns how many epoch boundaries changed the target.
func (a *Adaptive) Adjustments() uint64 { return a.adjusts }

// tick advances the epoch clock and adjusts the partition target by
// hill climbing: keep moving the partition boundary in the current
// direction while the epoch miss rate improves, reverse when it
// worsens. The first epochs are ignored so cold-start misses don't
// bias the search.
func (a *Adaptive) tick() {
	a.epochTicks++
	if a.epochTicks < a.epochLen {
		return
	}
	miss := float64(a.epochMiss) / float64(a.epochLen)
	a.epochTicks, a.epochPB, a.epochMiss = 0, 0, 0
	if a.warmup > 0 {
		a.warmup--
		return
	}
	if a.prevMiss >= 0 && miss > a.prevMiss*1.02 {
		a.dir = -a.dir // worsened: search the other way
	}
	a.prevMiss = miss
	next := a.targetPB + a.dir
	if next < adaptiveMinShare {
		next = adaptiveMinShare
		a.dir = adaptiveStep
	}
	if next > adaptiveMaxShare {
		next = adaptiveMaxShare
		a.dir = -adaptiveStep
	}
	if next != a.targetPB {
		a.targetPB = next
		a.adjusts++
	}
}

// --- trace cache view ---

// Lookup probes trace-cache-role entries.
func (a *Adaptive) Lookup(id trace.ID) (*trace.Trace, bool) {
	a.stats.Lookups++
	a.clock++
	a.tick()
	s := a.set(id)
	for i := range s {
		if s[i].valid && !s[i].precon && s[i].id == id {
			s[i].lru = a.clock
			a.stats.Hits++
			return s[i].tr, true
		}
	}
	return nil, false
}

// Peek returns a resident trace-cache-role trace without perturbation.
func (a *Adaptive) Peek(id trace.ID) (*trace.Trace, bool) {
	for _, l := range a.set(id) {
		if l.valid && !l.precon && l.id == id {
			return l.tr, true
		}
	}
	return nil, false
}

// Contains reports trace-cache-role residency without perturbation.
func (a *Adaptive) Contains(id trace.ID) bool {
	for _, l := range a.set(id) {
		if l.valid && !l.precon && l.id == id {
			return true
		}
	}
	return false
}

// lruTC returns the least-recently-used trace-cache-role way, or -1.
func lruTC(s []aline) int {
	v := -1
	for i := range s {
		if !s[i].precon && (v == -1 || s[i].lru < s[v].lru) {
			v = i
		}
	}
	return v
}

// oldestPB returns the buffer-role way from the oldest region (ties by
// LRU), optionally restricted to regions strictly older than limit.
func oldestPB(s []aline, limit uint64, limited bool) int {
	v := -1
	for i := range s {
		if !s[i].precon {
			continue
		}
		if limited && s[i].region >= limit {
			continue
		}
		if v == -1 || s[i].region < s[v].region ||
			(s[i].region == s[v].region && s[i].lru < s[v].lru) {
			v = i
		}
	}
	return v
}

// victim selects a replacement way for an insert of the given role,
// honouring the partition target: the role holding more than its share
// is evicted first. It returns -1 when the insert must be refused
// (buffer inserts only, preserving §3.1's region-priority bound).
func (a *Adaptive) victim(s []aline, forPrecon bool, region uint64) int {
	for i := range s {
		if !s[i].valid {
			return i
		}
	}
	overPB := a.PBShare() > a.targetPB
	if forPrecon {
		// Under target the buffers may grow into trace-cache space;
		// at or over target they recycle their own oldest regions,
		// never displacing same-or-newer regions.
		if !overPB {
			if v := lruTC(s); v >= 0 {
				return v
			}
		}
		if v := oldestPB(s, region, true); v >= 0 {
			return v
		}
		if !overPB {
			return -1
		}
		return lruTC(s) // set is all newer-region PB but store is over target
	}
	// Trace-cache insert: reclaim buffer space first when the buffers
	// exceed their target, else ordinary LRU among trace-cache lines.
	if overPB {
		if v := oldestPB(s, 0, false); v >= 0 {
			return v
		}
	}
	if v := lruTC(s); v >= 0 {
		return v
	}
	return oldestPB(s, 0, false) // set is all buffer lines
}

// Insert places a demand-built (or promoted) trace in trace-cache role.
func (a *Adaptive) Insert(tr *trace.Trace) {
	id := tr.ID()
	a.clock++
	a.stats.Inserts++
	a.epochMiss++ // demand inserts happen on the miss path
	s := a.set(id)
	for i := range s {
		if s[i].valid && s[i].id == id {
			if s[i].precon {
				a.pbCount--
			}
			s[i] = aline{id: id, tr: tr, valid: true, lru: a.clock}
			return
		}
	}
	v := a.victim(s, false, 0)
	if v < 0 {
		return // cannot happen: trace-cache inserts always find a way
	}
	if s[v].valid && s[v].precon {
		a.pbCount--
	}
	s[v] = aline{id: id, tr: tr, valid: true, lru: a.clock}
}

// Stats returns the trace-cache-view counters.
func (a *Adaptive) Stats() Stats { return a.stats }

// --- buffer view ---

// Take probes buffer-role entries; on a hit the entry flips to
// trace-cache role in place ("copied into the trace cache" without the
// copy) and the trace is returned.
func (a *Adaptive) Take(id trace.ID) (*trace.Trace, bool) {
	a.pbStats.Lookups++
	s := a.set(id)
	for i := range s {
		if s[i].valid && s[i].precon && s[i].id == id {
			a.pbStats.Hits++
			a.epochPB++
			a.clock++
			s[i].precon = false
			s[i].lru = a.clock
			a.pbCount--
			return s[i].tr, true
		}
	}
	a.epochMiss++
	return nil, false
}

// ContainsPrecon reports buffer-role residency.
func (a *Adaptive) ContainsPrecon(id trace.ID) bool {
	for _, l := range a.set(id) {
		if l.valid && l.precon && l.id == id {
			return true
		}
	}
	return false
}

// InsertPrecon places a preconstructed trace in buffer role, tagged
// with its region. It returns false when the partition refuses it.
func (a *Adaptive) InsertPrecon(tr *trace.Trace, region uint64) bool {
	id := tr.ID()
	a.clock++
	s := a.set(id)
	for i := range s {
		if s[i].valid && s[i].id == id {
			if !s[i].precon {
				// Already in the trace cache: nothing to buffer.
				return true
			}
			s[i].tr = tr
			s[i].region = region
			s[i].lru = a.clock
			a.pbStats.Inserts++
			return true
		}
	}
	v := a.victim(s, true, region)
	if v < 0 {
		a.pbStats.Rejected++
		return false
	}
	if !s[v].valid || !s[v].precon {
		a.pbCount++
	}
	s[v] = aline{id: id, tr: tr, valid: true, precon: true, lru: a.clock, region: region}
	a.pbStats.Inserts++
	return true
}

// PBStatsView returns the buffer-view counters.
func (a *Adaptive) PBStatsView() Stats { return a.pbStats }

// Occupancy returns (traceCacheLines, bufferLines) for tests.
func (a *Adaptive) Occupancy() (tc, pb int) {
	for _, s := range a.sets {
		for _, l := range s {
			if !l.valid {
				continue
			}
			if l.precon {
				pb++
			} else {
				tc++
			}
		}
	}
	return tc, pb
}

// Probe implements the frontend's TraceSupplier contract over the
// trace-cache role. Adaptive hits never request promotion: the store
// already is the primary.
func (a *Adaptive) Probe(id trace.ID) (tr *trace.Trace, hit, promote bool) {
	tr, hit = a.Lookup(id)
	return tr, hit, false
}

// Fill implements the frontend's PrimarySupplier contract: demand
// fills land in trace-cache role.
func (a *Adaptive) Fill(tr *trace.Trace) { a.Insert(tr) }

// PBView is the buffer-role facet of an Adaptive store: the same
// container presented under the preconstruction-buffer protocol
// (frontend TraceSupplier on the fetch side, precon BufferStore on the
// fill side). A Take/Probe hit flips the entry to trace-cache role in
// place, so PBView hits never request promotion either.
type PBView struct{ a *Adaptive }

// PBView returns the buffer-role facet: Probe/Take/Contains/Insert.
func (a *Adaptive) PBView() PBView { return PBView{a} }

func (v PBView) Take(id trace.ID) (*trace.Trace, bool) { return v.a.Take(id) }
func (v PBView) Contains(id trace.ID) bool             { return v.a.ContainsPrecon(id) }
func (v PBView) Insert(tr *trace.Trace, region uint64) bool {
	return v.a.InsertPrecon(tr, region)
}

// Probe implements the frontend's TraceSupplier contract over the
// buffer role (a consuming Take: the hit entry changes role in place).
func (v PBView) Probe(id trace.ID) (tr *trace.Trace, hit, promote bool) {
	tr, hit = v.a.Take(id)
	return tr, hit, false
}

// String describes the current partition for logs.
func (a *Adaptive) String() string {
	tc, pb := a.Occupancy()
	return fmt.Sprintf("adaptive[%d entries, pb target %.2f, occupancy tc=%d pb=%d]",
		a.cfg.Entries, a.targetPB, tc, pb)
}
