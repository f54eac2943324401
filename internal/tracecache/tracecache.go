// Package tracecache implements the two trace stores of the paper's
// frontend: the primary trace cache (2-way set associative, LRU) and the
// preconstruction buffers (same geometry, but with the region-priority
// replacement policy of §3.1). Both are indexed by hashing a trace's
// starting address with its branch outcomes. Their lines hold plain
// pointers to traces the caller keeps valid (interned in a
// trace.Store, whose entries live as long as the table): inserting,
// evicting or taking a trace transfers nothing.
package tracecache

import (
	"fmt"

	"tracepre/internal/trace"
)

// Config sizes a trace store.
type Config struct {
	Entries int // total traces held (paper: 64..1024 TC, 32..256 buffers)
	Assoc   int // ways per set (paper: 2)
}

// BufferConfig sizes the preconstruction buffers and selects their
// replacement policy.
type BufferConfig struct {
	Entries int // total traces held (paper: 32..256)
	Assoc   int // ways per set (paper: 2)
	// PlainLRU replaces the paper's region-priority replacement with
	// ordinary LRU (an ablation of §3.1's policy).
	PlainLRU bool
}

// Geometry returns the buffers' trace-store geometry.
func (c BufferConfig) Geometry() Config { return Config{Entries: c.Entries, Assoc: c.Assoc} }

// Validate checks the geometry: positive power-of-two set count.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("tracecache: %d entries in %d ways: both must be positive", c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets == 0 || sets*c.Assoc != c.Entries {
		return fmt.Errorf("tracecache: %d entries not divisible into %d ways", c.Entries, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tracecache: set count %d not a power of two", sets)
	}
	return nil
}

type line struct {
	id    trace.ID
	tr    *trace.Trace
	valid bool
	lru   uint64
	// region is the preconstruction region sequence number that built
	// the trace; unused (zero) in the primary trace cache.
	region uint64
}

// Stats counts trace-store activity.
type Stats struct {
	Lookups uint64
	Hits    uint64
	Inserts uint64
	// Rejected counts inserts refused by the replacement policy
	// (preconstruction buffers only: region-priority protection).
	Rejected uint64
}

// setArray is what the split design's two stores share: the
// set-associative line array indexed by trace ID and its counters.
type setArray struct {
	cfg     Config
	sets    [][]line
	setMask uint32
	clock   uint64
	stats   Stats
}

func newSetArray(cfg Config) (setArray, error) {
	if err := cfg.Validate(); err != nil {
		return setArray{}, err
	}
	numSets := cfg.Entries / cfg.Assoc
	backing := make([]line, cfg.Entries)
	sets := make([][]line, numSets)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return setArray{cfg: cfg, sets: sets, setMask: uint32(numSets - 1)}, nil
}

func (a *setArray) set(id trace.ID) []line {
	return a.sets[id.Hash()&a.setMask]
}

// Config returns the geometry.
func (a *setArray) Config() Config { return a.cfg }

// Contains reports residency without perturbing LRU state, statistics
// or (for the buffers) the entry. The preconstruction engine uses this
// to avoid buffering traces already resident.
func (a *setArray) Contains(id trace.ID) bool {
	for _, l := range a.set(id) {
		if l.valid && l.id == id {
			return true
		}
	}
	return false
}

// Occupancy returns the number of valid entries (for tests and reports).
func (a *setArray) Occupancy() int {
	n := 0
	for _, s := range a.sets {
		for _, l := range s {
			if l.valid {
				n++
			}
		}
	}
	return n
}

// Stats returns a copy of the counters.
func (a *setArray) Stats() Stats { return a.stats }

// TraceCache is the primary trace cache.
type TraceCache struct {
	setArray
}

// New builds a trace cache.
func New(cfg Config) (*TraceCache, error) {
	a, err := newSetArray(cfg)
	if err != nil {
		return nil, err
	}
	return &TraceCache{a}, nil
}

// Lookup searches for the trace with the given ID, updating LRU state and
// statistics.
func (tc *TraceCache) Lookup(id trace.ID) (*trace.Trace, bool) {
	tc.stats.Lookups++
	tc.clock++
	s := tc.set(id)
	for i := range s {
		if s[i].valid && s[i].id == id {
			s[i].lru = tc.clock
			tc.stats.Hits++
			return s[i].tr, true
		}
	}
	return nil, false
}

// Peek returns the resident trace without perturbing LRU state or
// statistics (used to replay wrong-path dispatch to the
// preconstruction engine).
func (tc *TraceCache) Peek(id trace.ID) (*trace.Trace, bool) {
	for _, l := range tc.set(id) {
		if l.valid && l.id == id {
			return l.tr, true
		}
	}
	return nil, false
}

// Probe implements the frontend's TraceSupplier contract: a stamped,
// counted Lookup. Trace-cache hits never request promotion — the cache
// is the primary store.
func (tc *TraceCache) Probe(id trace.ID) (tr *trace.Trace, hit, promote bool) {
	tr, hit = tc.Lookup(id)
	return tr, hit, false
}

// Fill implements the frontend's PrimarySupplier contract (demand-fill
// routing); it is Insert under the contract's name.
func (tc *TraceCache) Fill(tr *trace.Trace) { tc.Insert(tr) }

// Insert places a trace, evicting the LRU way if the set is full. If the
// trace is already present its line takes tr and its LRU stamp is
// refreshed instead.
func (tc *TraceCache) Insert(tr *trace.Trace) {
	id := tr.ID()
	tc.clock++
	tc.stats.Inserts++
	s := tc.set(id)
	victim := 0
	for i := range s {
		if s[i].valid && s[i].id == id {
			s[i].tr = tr
			s[i].lru = tc.clock
			return
		}
		if !s[i].valid {
			victim = i
		} else if s[victim].valid && s[i].lru < s[victim].lru {
			victim = i
		}
	}
	s[victim] = line{id: id, tr: tr, valid: true, lru: tc.clock}
}

// Buffers is the preconstruction buffer array: same lookup geometry as
// the trace cache, but replacement is governed by region priority
// (§3.1): newer regions may displace older ones, never the reverse, and
// a trace never displaces a trace from its own region. A buffered trace
// is consumed (invalidated) when the processor uses it.
type Buffers struct {
	setArray
	plainLRU bool
}

// NewBuffers builds the preconstruction buffer array.
func NewBuffers(cfg BufferConfig) (*Buffers, error) {
	a, err := newSetArray(cfg.Geometry())
	if err != nil {
		return nil, err
	}
	return &Buffers{setArray: a, plainLRU: cfg.PlainLRU}, nil
}

// Take searches for the trace; on a hit the buffer entry is invalidated
// (the caller copies the trace into the trace cache, per §3.1: "after a
// trace is copied from a preconstruction buffer to the trace cache, the
// buffer is invalidated"). The caller may keep the returned pointer:
// invalidating the line frees nothing.
func (b *Buffers) Take(id trace.ID) (*trace.Trace, bool) {
	b.stats.Lookups++
	s := b.set(id)
	for i := range s {
		if s[i].valid && s[i].id == id {
			b.stats.Hits++
			tr := s[i].tr
			s[i].tr = nil
			s[i].valid = false
			return tr, true
		}
	}
	return nil, false
}

// Probe implements the frontend's TraceSupplier contract: a consuming
// Take. Buffer hits request promotion — §3.1 copies the trace into the
// trace cache and invalidates the buffer, so the frontend must Fill
// the returned trace into the primary supplier.
func (b *Buffers) Probe(id trace.ID) (tr *trace.Trace, hit, promote bool) {
	tr, hit = b.Take(id)
	return tr, hit, hit
}

// Insert places a preconstructed trace tagged with its region sequence
// number (monotonically increasing; larger = more recent = higher
// priority). It returns false when the replacement policy refuses the
// insert: every candidate victim belongs to the same or a more recent
// region. This refusal is what bounds preconstruction effort per region.
func (b *Buffers) Insert(tr *trace.Trace, region uint64) bool {
	id := tr.ID()
	b.clock++
	s := b.set(id)
	// Already present (from any region): refresh, don't duplicate.
	for i := range s {
		if s[i].valid && s[i].id == id {
			s[i].tr = tr
			s[i].region = region
			s[i].lru = b.clock
			b.stats.Inserts++
			return true
		}
	}
	victim := -1
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
		if b.plainLRU {
			if victim == -1 || s[i].lru < s[victim].lru {
				victim = i
			}
			continue
		}
		if s[i].region < region {
			// Oldest region loses first; ties broken by LRU.
			if victim == -1 || s[i].region < s[victim].region ||
				(s[i].region == s[victim].region && s[i].lru < s[victim].lru) {
				victim = i
			}
		}
	}
	if victim == -1 {
		b.stats.Rejected++
		return false
	}
	s[victim] = line{id: id, tr: tr, valid: true, lru: b.clock, region: region}
	b.stats.Inserts++
	return true
}
