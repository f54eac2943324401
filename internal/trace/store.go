// Interned, reference-counted trace storage.
//
// Loop-dominated streams demand the same traces over and over: a trace
// evicted from a 64-entry trace cache is rebuilt by the slow path
// thousands of times per run, and before the Store existed every one of
// those rebuilds deep-copied (Clone) the borrowed trace into the trace
// cache or preconstruction buffers — the dominant allocation source of
// whole sweeps. The Store replaces that copy with interning:
//
//   - traces live in slab-backed storage carved into fixed
//     MaxLen-capacity chunks: each chunk is a trace header plus its
//     PCs/Insts arrays, and the three are recycled together, so
//     interning allocates only when a slab is carved;
//   - every interned trace is reference counted (Intern/Retain give the
//     caller a reference, Release drops one), and consumers — the trace
//     cache, the preconstruction buffers, the adaptive store — hold one
//     reference per resident line, released on eviction and replacement;
//   - traces whose last reference is dropped are not freed eagerly: they
//     stay resident in the ID index with storage intact (a "limbo" set)
//     until their chunk is actually needed, so re-interning a recently
//     evicted trace revives it — a refcount bump and a content check
//     instead of a copy.
//
// The Store is single-goroutine, like the simulator that owns it: one
// Store per pipeline.Simulator, shared by that simulator's trace cache,
// buffers and preconstruction engine. Sweep cells each own their store,
// so the concurrent sweep fan-out shares nothing.
package trace

import (
	"fmt"
	"unsafe"

	"tracepre/internal/isa"
)

const (
	// chunkInsts is the instruction capacity of one slab chunk.
	// SelectConfig.Validate caps MaxLen at 16, so one chunk size fits
	// every configuration.
	chunkInsts = 16
	// chunksPerSlab sizes one slab allocation (16 KiB of PCs + 64 KiB
	// of Insts per slab at 16 instructions per chunk, plus 256 trace
	// headers).
	chunksPerSlab = 256
)

// chunkBytes is the PC and instruction storage of one chunk (headers
// are not counted).
var chunkBytes = chunkInsts * (int(unsafe.Sizeof(uint32(0))) + int(unsafe.Sizeof(isa.Inst{})))

// StoreStats is a snapshot of store activity and residency.
type StoreStats struct {
	Interns   uint64 // Intern calls
	Hits      uint64 // Interns served by a resident identical trace
	Revived   uint64 // subset of Hits that resurrected a zero-ref trace
	Released  uint64 // refcounts that dropped to zero
	Scavenged uint64 // zero-ref traces whose storage was reclaimed
	Live      int    // traces with refcount > 0
	Limbo     int    // zero-ref traces still resident for revival
	SlabBytes int64  // bytes held in PC/Inst slabs (headers excluded)
}

// HitRate returns Hits/Interns (0 when idle).
func (s StoreStats) HitRate() float64 {
	if s.Interns == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Interns)
}

// Store is an ID-addressed, reference-counted trace arena. The zero
// value is not usable; call NewStore.
type Store struct {
	// Open-addressed index of resident traces (live + limbo) by
	// identity: linear probing on ID.Hash with backward-shift deletion,
	// replacing a Go map whose hashing dominated the intern path under
	// eviction churn. slots is a power of two; count is resident
	// entries.
	slots []*Trace
	mask  uint32
	count int

	// Chunk c is the header hdrSlabs[c/chunksPerSlab][c%chunksPerSlab]
	// with the PCs and Insts at offset (c%chunksPerSlab)*chunkInsts in
	// the same slab's arrays.
	pcSlabs   [][]uint32
	instSlabs [][]isa.Inst
	hdrSlabs  [][]Trace
	next      int32    // first never-carved chunk
	limbo     []*Trace // zero-ref traces, oldest-released first-ish

	live                   int
	interns, hits, revived uint64
	released, scavenged    uint64
}

// minIndexSlots is the initial index size (power of two).
const minIndexSlots = 1024

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{slots: make([]*Trace, minIndexSlots), mask: minIndexSlots - 1}
}

// lookup returns the trace indexed under id, or nil.
func (s *Store) lookup(id ID, h uint32) *Trace {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		t := s.slots[i]
		if t == nil {
			return nil
		}
		if t.hash == h && t.ID() == id {
			return t
		}
	}
}

// indexPut inserts t under id, displacing any previous entry with the
// same ID (the displaced trace stays allocated until its references
// drain, it just cannot be found by Intern anymore).
func (s *Store) indexPut(t *Trace, id ID, h uint32) {
	if (s.count+1)*4 >= len(s.slots)*3 {
		s.growIndex()
	}
	t.hash = h
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.slots[i]
		if e == nil {
			s.slots[i] = t
			s.count++
			return
		}
		if e.hash == h && e.ID() == id {
			s.slots[i] = t
			return
		}
	}
}

// indexDel removes t if it is the entry indexed under its ID, using
// backward-shift deletion so probe chains stay dense (no tombstones).
func (s *Store) indexDel(t *Trace) {
	h := t.hash
	i := h & s.mask
	for {
		e := s.slots[i]
		if e == nil {
			return // t lost its slot to a same-ID displacement
		}
		if e == t {
			break
		}
		if e.hash == h && e.ID() == t.ID() {
			return // slot taken by a newer same-ID trace
		}
		i = (i + 1) & s.mask
	}
	s.count--
	for {
		s.slots[i] = nil
		j := i
		for {
			j = (j + 1) & s.mask
			e := s.slots[j]
			if e == nil {
				return
			}
			// e may shift into the hole only if its home slot does not
			// lie in the (i, j] probe interval it would then skip.
			if (j-e.hash)&s.mask >= (j-i)&s.mask {
				s.slots[i] = e
				i = j
				break
			}
		}
	}
}

// growIndex doubles the slot array and reinserts every resident trace.
func (s *Store) growIndex() {
	old := s.slots
	s.slots = make([]*Trace, 2*len(old))
	s.mask = uint32(len(s.slots) - 1)
	for _, t := range old {
		if t == nil {
			continue
		}
		for i := t.hash & s.mask; ; i = (i + 1) & s.mask {
			if s.slots[i] == nil {
				s.slots[i] = t
				break
			}
		}
	}
}

// Intern returns a retained trace equal in content to the borrowed
// trace b: the resident trace when an ID-equal, content-equal one is
// already interned (live or in limbo), otherwise a slab-backed copy.
// The caller owns one reference to the result and must balance it with
// Release (directly, or by handing it to a consumer whose protocol
// takes ownership, like the trace stores' Insert).
//
// Succ is sticky: a hit keeps the resident trace's successor rather
// than the borrower's. Nothing reads a retained trace's Succ (it only
// steers preconstruction, which reads the borrowed original).
func (s *Store) Intern(b *Trace) *Trace {
	s.interns++
	id := b.ID()
	h := id.Hash()
	if t := s.lookup(id, h); t != nil && t.contentEqual(b) {
		s.hits++
		if t.refs == 0 {
			s.reviveLocked(t)
		}
		t.refs++
		return t
	}
	t := s.alloc()
	t.PCs = append(t.PCs, b.PCs...)
	t.Insts = append(t.Insts, b.Insts...)
	t.BrMask = b.BrMask
	t.NumBr = b.NumBr
	t.Flags = b.Flags
	t.EndsInReturn = b.EndsInReturn
	t.EndsInIndirect = b.EndsInIndirect
	t.EndsInHalt = b.EndsInHalt
	t.Succ = b.Succ
	t.refs = 1
	// A content-unequal trace under the same ID (possible only across
	// different program images, which a store never mixes) loses its
	// index slot but stays resident until its references drain.
	s.indexPut(t, id, h)
	s.live++
	return t
}

// Retain adds a reference to an interned trace.
func (s *Store) Retain(t *Trace) {
	if t.store != s {
		panic("trace: Retain of a trace not interned in this store")
	}
	if t.refs <= 0 {
		panic("trace: Retain of a released trace")
	}
	t.refs++
}

// Release drops one reference. The last release parks the trace in
// limbo: still resident for revival by Intern, its storage reclaimed
// lazily when the store needs a chunk. Releasing a trace this store did
// not intern (a plain or cloned trace, or one from another store)
// panics: every consumer holds only interned references.
func (s *Store) Release(t *Trace) {
	if t.store != s {
		panic("trace: Release of a trace not interned in this store")
	}
	if t.refs <= 0 {
		panic("trace: Release without a matching Intern/Retain")
	}
	t.refs--
	if t.refs > 0 {
		return
	}
	s.released++
	s.live--
	t.limboIdx = int32(len(s.limbo))
	s.limbo = append(s.limbo, t)
}

// revive removes t from the limbo set (an Intern hit on a zero-ref
// trace): it is live again.
func (s *Store) reviveLocked(t *Trace) {
	s.revived++
	s.live++
	s.removeLimbo(t)
}

// removeLimbo unlinks t from the limbo slice by swapping the tail into
// its slot (order is only advisory: it biases scavenging toward older
// releases but does not affect correctness).
func (s *Store) removeLimbo(t *Trace) {
	i := t.limboIdx
	last := s.limbo[len(s.limbo)-1]
	s.limbo[i] = last
	last.limboIdx = i
	s.limbo = s.limbo[:len(s.limbo)-1]
	t.limboIdx = -1
}

// alloc returns the cleared header of a free chunk, scavenging the
// oldest limbo resident when no chunk is free and growing a new slab
// only when limbo is empty — so slab footprint tracks peak live
// residency, not total distinct traces.
func (s *Store) alloc() *Trace {
	c, ok := s.takeChunk()
	if !ok {
		c = s.scavenge()
	}
	slab, k := int(c)/chunksPerSlab, int(c)%chunksPerSlab
	off := k * chunkInsts
	t := &s.hdrSlabs[slab][k]
	*t = Trace{
		PCs:      s.pcSlabs[slab][off : off : off+chunkInsts],
		Insts:    s.instSlabs[slab][off : off : off+chunkInsts],
		store:    s,
		chunk:    c,
		limboIdx: -1,
	}
	return t
}

// takeChunk pops a never-carved chunk, carving a fresh slab when the
// tail is exhausted and limbo has nothing to scavenge.
func (s *Store) takeChunk() (int32, bool) {
	if int(s.next) < len(s.pcSlabs)*chunksPerSlab {
		c := s.next
		s.next++
		return c, true
	}
	if len(s.limbo) > 0 {
		return 0, false // caller scavenges instead of growing
	}
	s.pcSlabs = append(s.pcSlabs, make([]uint32, chunksPerSlab*chunkInsts))
	s.instSlabs = append(s.instSlabs, make([]isa.Inst, chunksPerSlab*chunkInsts))
	s.hdrSlabs = append(s.hdrSlabs, make([]Trace, chunksPerSlab))
	c := s.next
	s.next++
	return c, true
}

// scavenge reclaims one limbo trace: unindex it and return its chunk,
// header included.
func (s *Store) scavenge() int32 {
	// Index 0 approximates the oldest release (swap-removal perturbs
	// order); hot recently-evicted traces tend to survive for revival.
	t := s.limbo[0]
	s.removeLimbo(t)
	s.scavenged++
	s.indexDel(t)
	return t.chunk
}

// Stats returns a snapshot of the store counters and residency.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Interns:   s.interns,
		Hits:      s.hits,
		Revived:   s.revived,
		Released:  s.released,
		Scavenged: s.scavenged,
		Live:      s.live,
		Limbo:     len(s.limbo),
		SlabBytes: s.SlabBytes(),
	}
}

// Live returns the number of traces with a positive refcount. After
// every consumer drains, Live must be zero — the leak invariant the
// lifecycle tests pin.
func (s *Store) Live() int { return s.live }

// SlabBytes returns the bytes held in PC/Inst slabs.
func (s *Store) SlabBytes() int64 {
	return int64(len(s.pcSlabs)) * chunksPerSlab * int64(chunkBytes)
}

// Refs reports the refcount of an interned trace (testing and
// invariant checks); zero for unmanaged traces.
func (s *Store) Refs(t *Trace) int {
	if t == nil || t.store != s {
		return 0
	}
	return int(t.refs)
}

// contentEqual reports whether the interned trace t and the borrowed
// trace b describe the same instruction sequence with the same selection
// outcome. Succ is excluded (see Intern).
func (t *Trace) contentEqual(b *Trace) bool {
	if len(t.PCs) != len(b.PCs) || t.BrMask != b.BrMask || t.NumBr != b.NumBr ||
		t.Flags != b.Flags || t.EndsInReturn != b.EndsInReturn ||
		t.EndsInIndirect != b.EndsInIndirect || t.EndsInHalt != b.EndsInHalt {
		return false
	}
	for i := range t.PCs {
		if t.PCs[i] != b.PCs[i] || t.Insts[i] != b.Insts[i] {
			return false
		}
	}
	return true
}

// String summarizes residency for logs.
func (s *Store) String() string {
	return fmt.Sprintf("store[live=%d limbo=%d slabs=%dKiB hit=%.0f%%]",
		s.live, len(s.limbo), s.SlabBytes()/1024, s.Stats().HitRate()*100)
}
