// Package cache implements a set-associative cache model with LRU
// replacement. It models hits and misses only (contents are address tags;
// data always comes from the program image), which is all the
// instruction-supply experiments need. The same model backs the L1
// instruction and data caches; the L2 behind them is perfect (fixed
// latency), matching §4.1 of the paper.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size
	Assoc     int // ways per set
}

// Validate checks the configuration for consistency: power-of-two line
// size and set count, capacity divisible by line size and associativity.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: %d bytes in %d-byte lines and %d ways: all must be positive", c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Assoc
	if sets == 0 || sets*c.Assoc != lines {
		return fmt.Errorf("cache: %d lines not divisible into %d ways", lines, c.Assoc)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

type line struct {
	tag   uint32
	valid bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// Stats counts cache activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
	// Evictions counts fills that displaced a valid victim line —
	// capacity/conflict pressure as opposed to cold misses. Hierarchy
	// accounting (internal/mem) reads it to separate the two.
	Evictions uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg       Config
	sets      [][]line
	setMask   uint32
	lineShift uint
	setShift  uint // log2(set count), cached for setAndTag
	clock     uint64
	stats     Stats
}

// New builds a cache from the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint32(numSets - 1),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(numSets))),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the address of the line containing addr.
func (c *Cache) LineAddr(addr uint32) uint32 {
	return addr &^ (uint32(c.cfg.LineBytes) - 1)
}

func (c *Cache) setAndTag(addr uint32) (uint32, uint32) {
	la := addr >> c.lineShift
	return la & c.setMask, la >> c.setShift
}

// Access looks up addr, updating LRU state and statistics, and fills the
// line on a miss. It returns true on a hit.
func (c *Cache) Access(addr uint32) bool {
	set, tag := c.setAndTag(addr)
	c.clock++
	c.stats.Accesses++
	s := c.sets[set]
	victim := 0
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].lru = c.clock
			return true
		}
		if !s[i].valid {
			victim = i
		} else if s[victim].valid && s[i].lru < s[victim].lru {
			victim = i
		}
	}
	c.stats.Misses++
	if s[victim].valid {
		c.stats.Evictions++
	}
	s[victim] = line{tag: tag, valid: true, lru: c.clock}
	return false
}

// Warm looks up addr like Access — updating LRU state and filling the
// line on a miss — but counts nothing: the sampled-simulation
// fast-forward phase uses it to keep tags and recency current while
// the statistics stay frozen. It returns true on a hit.
func (c *Cache) Warm(addr uint32) bool {
	set, tag := c.setAndTag(addr)
	c.clock++
	s := c.sets[set]
	victim := 0
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].lru = c.clock
			return true
		}
		if !s[i].valid {
			victim = i
		} else if s[victim].valid && s[i].lru < s[victim].lru {
			victim = i
		}
	}
	s[victim] = line{tag: tag, valid: true, lru: c.clock}
	return false
}

// Probe reports whether addr is resident without changing any state.
func (c *Cache) Probe(addr uint32) bool {
	set, tag := c.setAndTag(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch updates the LRU stamp of addr's line if resident, without counting
// an access.
func (c *Cache) Touch(addr uint32) {
	set, tag := c.setAndTag(addr)
	c.clock++
	s := c.sets[set]
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].lru = c.clock
			return
		}
	}
}

// Invalidate drops addr's line if resident, returning whether it was.
func (c *Cache) Invalidate(addr uint32) bool {
	set, tag := c.setAndTag(addr)
	s := c.sets[set]
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			s[i].valid = false
			return true
		}
	}
	return false
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates all lines and clears the counters.
func (c *Cache) Reset() {
	for _, s := range c.sets {
		for i := range s {
			s[i] = line{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
}
