package emulator

// DefaultChunkLen is the chunk size DecodeChunks uses when the caller
// passes 0. Sized so one chunk of decoded Dyn records stays
// cache-resident while every member of a harness group drains it,
// yet is large enough that the consumer's per-chunk work (a context
// check, the sampling leader's lookup) is amortized to noise.
const DefaultChunkLen = 1024

// ChunkedReplayer decodes a recorded Stream into fixed-size []Dyn
// chunks exactly once. It is the decode-once half of the harness's
// group driver: one ChunkedReplayer feeds any number of simulators
// that step over each chunk in lockstep, turning a sweep's
// N×(decode+simulate) into decode+N×simulate.
//
// Decoding runs on the caller's goroutine, inside Next, into one
// buffer per pass. The returned chunk is borrowed: the following Next
// overwrites it, and Close invalidates it.
type ChunkedReplayer struct {
	rp   Replayer
	buf  []Dyn
	done bool // end of stream, decode error, or Close
}

// DecodeChunks returns a ChunkedReplayer positioned at the start of the
// stream, decoding chunkLen instructions per chunk (0 selects
// DefaultChunkLen).
func (s *Stream) DecodeChunks(chunkLen int) *ChunkedReplayer {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	return &ChunkedReplayer{rp: *s.Replay(), buf: make([]Dyn, chunkLen)}
}

// Next decodes and returns the next chunk, or ok=false at end of
// stream, on a decode error (see Err), or after Close.
func (cr *ChunkedReplayer) Next() ([]Dyn, bool) {
	if cr.done {
		return nil, false
	}
	k := 0
	for k < len(cr.buf) && cr.rp.NextInto(&cr.buf[k]) {
		k++
	}
	cr.done = k < len(cr.buf)
	return cr.buf[:k], k > 0
}

// Err reports the first decode error. It is meaningful once Next has
// returned ok=false; a pass abandoned by Close reports nil.
func (cr *ChunkedReplayer) Err() error { return cr.rp.Err() }

// Close ends the pass: Next reports ok=false from then on and
// previously returned chunks are invalid. Close is idempotent; callers
// close on every exit path, including early abandonment.
func (cr *ChunkedReplayer) Close() { cr.done = true }
