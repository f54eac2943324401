package harness

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"tracepre/internal/emulator"
	"tracepre/internal/program"
	"tracepre/internal/workload"
)

// imageKey identifies one generated benchmark program: generation is
// deterministic, so name plus seed perturbation pins down the image.
type imageKey struct {
	name string
	seed int64
}

// imageEntry is one memoized program. once guards the generation, so
// concurrent demands for one image share a single generator run while
// different images generate at the same time.
type imageEntry struct {
	once sync.Once
	im   *program.Image
	err  error
}

// images memoizes generated benchmark programs: one image per
// (benchmark, seed perturbation) serves every experiment. The mutex
// guards the map only, never a generation.
var (
	imagesMu sync.Mutex
	images   = map[imageKey]*imageEntry{}
)

// ImageSeed returns the (cached) program image for a benchmark with
// the given generator-seed perturbation added to its profile seed
// (0 = the profile default). Images are immutable after generation and
// safe to share across simulators. A failed generation is not cached:
// the next call tries again.
func ImageSeed(name string, seed int64) (*program.Image, error) {
	key := imageKey{name, seed}
	imagesMu.Lock()
	e, ok := images[key]
	if !ok {
		e = &imageEntry{}
		images[key] = e
	}
	imagesMu.Unlock()

	e.once.Do(func() {
		p, err := workload.ByName(name)
		if err == nil {
			p.Seed += seed
			e.im, err = workload.Generate(p)
		}
		if e.err = err; err != nil {
			imagesMu.Lock()
			delete(images, key)
			imagesMu.Unlock()
		}
	})
	return e.im, e.err
}

// DefaultStreamCacheCap bounds the stream cache's encoded bytes. At
// well under 2 bytes per instruction even a 20M-instruction run stays
// in the tens of megabytes, so the default fits every bundled sweep
// while capping worst-case memory.
const DefaultStreamCacheCap int64 = 512 << 20

// streamKey identifies one recorded dynamic stream: generation is
// deterministic, so bench/seed/budget pins down the exact stream.
type streamKey struct {
	name   string
	seed   int64 // generator seed perturbation (0 = profile default)
	budget uint64
}

// streamEntry is one cache slot. once guards the recording so
// concurrent sweep workers demanding the same stream block on a single
// recorder instead of re-emulating in parallel.
type streamEntry struct {
	key   streamKey
	once  sync.Once
	s     *emulator.Stream
	err   error
	bytes int64
	elem  *list.Element // position in the LRU list; nil until recorded
}

// streamCache is a byte-capped LRU of recorded streams, the stream
// analogue of the images memo.
type streamCache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	entries map[streamKey]*streamEntry
	lru     *list.List // front = most recently used
}

func newStreamCache(capBytes int64) *streamCache {
	return &streamCache{
		cap:     capBytes,
		entries: map[streamKey]*streamEntry{},
		lru:     list.New(),
	}
}

// streams is the process-wide stream cache.
var streams = newStreamCache(DefaultStreamCacheCap)

// StreamCacheStats reports the cached stream count and encoded bytes.
func StreamCacheStats() (entries int, bytes int64) {
	streams.mu.Lock()
	defer streams.mu.Unlock()
	return streams.lru.Len(), streams.bytes
}

// ResetStreamCache drops every cached stream (tests and long-lived
// servers switching workloads).
func ResetStreamCache() {
	streams.mu.Lock()
	defer streams.mu.Unlock()
	streams.entries = map[streamKey]*streamEntry{}
	streams.lru.Init()
	streams.bytes = 0
}

// evictLocked pops LRU entries until the cache fits its cap, always
// keeping the most recent entry so a single oversized stream does not
// thrash.
func (c *streamCache) evictLocked() {
	for c.bytes > c.cap && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*streamEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
	}
}

// get returns the recorded stream for key, recording it on first use.
// Concurrent demands for the same key share one recording.
func (c *streamCache) get(key streamKey, im *program.Image) (*emulator.Stream, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &streamEntry{key: key}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.s, e.err = emulator.Record(im, key.budget)
		c.mu.Lock()
		defer c.mu.Unlock()
		if e.err != nil {
			delete(c.entries, key)
			return
		}
		e.bytes = int64(e.s.Bytes())
		c.bytes += e.bytes
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	})
	if e.err != nil {
		return nil, e.err
	}
	c.mu.Lock()
	if e.elem != nil && c.entries[key] == e {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	return e.s, nil
}

// warmStreams records (or finds in the cache) each (benchmark, seed)
// stream of the matrix up front, in parallel, so the sweep fan-out
// replays from the start instead of serializing behind the first
// worker to demand each stream. The sweep's groups replay the returned
// streams without asking the cache again: a sweep whose streams
// overflow the cache cap would otherwise record them a second time.
func warmStreams(ctx context.Context, m Matrix, workers int) (map[imageKey]*emulator.Stream, error) {
	var units []imageKey
	seen := map[imageKey]bool{}
	for _, b := range m.Benches {
		for _, s := range m.seeds() {
			u := imageKey{b, s}
			if !seen[u] {
				seen[u] = true
				units = append(units, u)
			}
		}
	}
	sts := make([]*emulator.Stream, len(units))
	err := forEach(ctx, len(units), workers, func(i int) error {
		u := units[i]
		im, err := ImageSeed(u.name, u.seed)
		if err == nil {
			sts[i], err = streams.get(streamKey{name: u.name, seed: u.seed, budget: m.Budget}, im)
		}
		if err != nil {
			return fmt.Errorf("harness: %s: %s: %w", m.Name, u.name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[imageKey]*emulator.Stream, len(units))
	for i, u := range units {
		out[u] = sts[i]
	}
	return out, nil
}
