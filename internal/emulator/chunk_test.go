package emulator

import (
	"errors"
	"testing"

	"tracepre/internal/workload"
)

// recordBench records one benchmark stream for the chunk tests.
func recordBench(t testing.TB, name string, budget uint64) *Stream {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChunkedReplayerBitIdentical checks that the concatenation of
// DecodeChunks chunks equals the plain Replayer sequence, for chunk
// sizes that tile the stream exactly, leave a remainder, degenerate to
// one instruction, and exceed the whole stream.
func TestChunkedReplayerBitIdentical(t *testing.T) {
	const budget = 20_000
	st := recordBench(t, "gcc", budget)

	var want []Dyn
	rp := st.Replay()
	for {
		d, ok := rp.Next()
		if !ok {
			break
		}
		want = append(want, d)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}

	for _, chunkLen := range []int{1, 7, 1000, DefaultChunkLen, int(budget) + 1} {
		cr := st.DecodeChunks(chunkLen)
		var got []Dyn
		for {
			chunk, ok := cr.Next()
			if !ok {
				break
			}
			if len(chunk) > chunkLen {
				t.Fatalf("chunkLen %d: oversized chunk of %d", chunkLen, len(chunk))
			}
			got = append(got, chunk...)
		}
		if err := cr.Err(); err != nil {
			t.Fatalf("chunkLen %d: %v", chunkLen, err)
		}
		cr.Close()
		if len(got) != len(want) {
			t.Fatalf("chunkLen %d: %d instrs, want %d", chunkLen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunkLen %d: instr %d differs:\nchunked %+v\nreplay  %+v",
					chunkLen, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeChunksAllocs pins a whole decode pass to the same small
// allocation count however long the stream: one buffer serves every
// chunk of the pass.
func TestDecodeChunksAllocs(t *testing.T) {
	pass := func(st *Stream) float64 {
		return testing.AllocsPerRun(10, func() {
			cr := st.DecodeChunks(0)
			defer cr.Close()
			for {
				if _, ok := cr.Next(); !ok {
					break
				}
			}
			if err := cr.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := pass(recordBench(t, "compress", 5_000))
	long := pass(recordBench(t, "compress", 50_000))
	if short != long || long > 3 {
		t.Errorf("decode pass allocated %v times at 5k instructions and %v at 50k, want one constant of at most 3",
			short, long)
	}
}

// TestChunkedReplayerEarlyClose abandons a decode mid-stream: Close
// must be idempotent, Next after Close reports end of stream, and the
// abandoned pass reports no error.
func TestChunkedReplayerEarlyClose(t *testing.T) {
	st := recordBench(t, "go", 20_000)
	cr := st.DecodeChunks(64)
	if _, ok := cr.Next(); !ok {
		t.Fatal("no first chunk")
	}
	cr.Close()
	cr.Close() // idempotent
	if _, ok := cr.Next(); ok {
		t.Error("Next returned a chunk after Close")
	}
	if err := cr.Err(); err != nil {
		t.Errorf("abandoned decode reported error: %v", err)
	}

	// Close before the first Next ends the pass just the same.
	cr = st.DecodeChunks(64)
	cr.Close()
	if _, ok := cr.Next(); ok {
		t.Error("Next returned a chunk after Close")
	}
}

// TestChunkedReplayerError corrupts a recording and checks the decode
// error surfaces through Err after the chunk iteration ends, exactly as
// Replayer.Err would report it.
func TestChunkedReplayerError(t *testing.T) {
	st := recordBench(t, "li", 20_000)
	// Truncate the aux varints so an indirect target or memory address
	// decode runs off the end mid-stream.
	bad := *st
	bad.aux = bad.aux[:1]

	cr := bad.DecodeChunks(0)
	defer cr.Close()
	n := 0
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		n += len(chunk)
	}
	if err := cr.Err(); !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("corrupt stream decoded with error %v, want ErrCorruptStream", err)
	}
	if n >= int(st.Len()) {
		t.Errorf("decoded %d instrs from a truncated stream of %d", n, st.Len())
	}
}
