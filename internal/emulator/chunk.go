package emulator

import (
	"sync"
	"sync/atomic"
)

// DefaultChunkLen is the chunk size DecodeChunks uses when the caller
// passes 0. Sized so one chunk of decoded Dyn records stays
// cache-resident while every member of a harness group drains it,
// yet is large enough that the per-chunk handoff between the decode
// goroutine and the consumer is amortized to noise.
const DefaultChunkLen = 1024

// chunkPool recycles the decode buffers behind ChunkedReplayer so a
// sweep of thousands of runs reuses two buffers per concurrent decode
// instead of allocating ~100 KiB of scratch per run. chunkAllocs counts
// pool misses; the steady-state tests pin it flat once warm.
var chunkPool = sync.Pool{
	New: func() interface{} {
		chunkAllocs.Add(1)
		s := make([]Dyn, 0, DefaultChunkLen)
		return &s
	},
}

var chunkAllocs atomic.Uint64

// ChunkBufAllocs reports how many chunk decode buffers have been
// allocated process-wide (pool misses). Once a steady run-replay cycle
// is warm the pool serves every run and the counter stops moving; the
// allocation-regression tests assert exactly that.
func ChunkBufAllocs() uint64 { return chunkAllocs.Load() }

// ChunkedReplayer decodes a recorded Stream into fixed-size []Dyn
// chunks exactly once, on a dedicated goroutine, double-buffered so
// decode of chunk k+1 overlaps consumption of chunk k. It is the
// decode-once half of the harness's group driver: one ChunkedReplayer
// feeds any number of simulators that step over each chunk in
// lockstep, turning a sweep's N×(decode+simulate) into
// decode+N×simulate.
//
// A ChunkedReplayer is single-consumer: Next and Close must be called
// from one goroutine. The returned chunk is borrowed — it is
// invalidated by the next Next or by Close. Callers must Close on every
// exit path (including early abandonment) to stop the decode goroutine
// and return the buffers to the pool.
type ChunkedReplayer struct {
	filled chan []Dyn    // decoded chunks, decode goroutine -> consumer
	free   chan []Dyn    // drained buffers, consumer -> decode goroutine
	stop   chan struct{} // closed by Close to halt the decoder early
	bufs   [2]*[]Dyn     // the pooled backing buffers, for Put on Close
	cur    []Dyn         // chunk currently held by the consumer
	err    error         // decode error; written before filled closes
	done   bool          // consumer observed end of stream
	closed bool
}

// DecodeChunks returns a ChunkedReplayer positioned at the start of the
// stream, decoding chunkLen instructions per chunk (0 selects
// DefaultChunkLen). Decoding starts immediately on a background
// goroutine; the first chunk is typically ready before the caller asks.
func (s *Stream) DecodeChunks(chunkLen int) *ChunkedReplayer {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	cr := &ChunkedReplayer{
		filled: make(chan []Dyn),
		free:   make(chan []Dyn, 2),
		stop:   make(chan struct{}),
	}
	for i := range cr.bufs {
		bufp := chunkPool.Get().(*[]Dyn)
		if cap(*bufp) < chunkLen {
			chunkAllocs.Add(1)
			*bufp = make([]Dyn, 0, chunkLen)
		}
		cr.bufs[i] = bufp
		cr.free <- (*bufp)[:0]
	}
	go cr.decode(s.Replay(), chunkLen)
	return cr
}

// decode runs on its own goroutine: it fills free buffers from the
// replayer and hands them to the consumer until the stream ends, an
// error occurs, or Close asks it to stop. cr.err is written before
// filled is closed, so the consumer's end-of-stream observation
// happens-after the error store.
func (cr *ChunkedReplayer) decode(rp *Replayer, chunkLen int) {
	defer close(cr.filled)
	for {
		var buf []Dyn
		select {
		case buf = <-cr.free:
		case <-cr.stop:
			return
		}
		buf = buf[:chunkLen]
		k := 0
		for k < chunkLen && rp.NextInto(&buf[k]) {
			k++
		}
		if k > 0 {
			select {
			case cr.filled <- buf[:k]:
			case <-cr.stop:
				return
			}
		}
		if k < chunkLen {
			cr.err = rp.Err()
			return
		}
	}
}

// Next returns the next decoded chunk, or ok=false at end of stream or
// decode error (see Err). The previous chunk is recycled: chunks are
// valid only until the following Next or Close call.
func (cr *ChunkedReplayer) Next() ([]Dyn, bool) {
	if cr.done || cr.closed {
		return nil, false
	}
	if cr.cur != nil {
		cr.free <- cr.cur[:0]
		cr.cur = nil
	}
	buf, ok := <-cr.filled
	if !ok {
		cr.done = true
		return nil, false
	}
	cr.cur = buf
	return buf, true
}

// Err reports the first decode error. It is meaningful once Next has
// returned ok=false or after Close; while decoding is still in flight
// it returns nil.
func (cr *ChunkedReplayer) Err() error {
	if !cr.done && !cr.closed {
		return nil
	}
	return cr.err
}

// Close stops the decode goroutine (waiting for it to exit) and returns
// the chunk buffers to the pool. Close is idempotent and must be called
// on every exit path; after Close, previously returned chunks are
// invalid and Next reports ok=false.
func (cr *ChunkedReplayer) Close() {
	if cr.closed {
		return
	}
	cr.closed = true
	close(cr.stop)
	if !cr.done {
		for range cr.filled {
			// Drain until the decoder observes stop (or finishes) and
			// closes the channel; this is also the synchronization that
			// makes cr.err safe to read below.
		}
		cr.done = true
	}
	cr.cur = nil
	for i, bufp := range cr.bufs {
		*bufp = (*bufp)[:0]
		chunkPool.Put(bufp)
		cr.bufs[i] = nil
	}
}
