package trace

import (
	"fmt"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/workload"
)

// chunkRecord records one benchmark stream for the chunk-segmentation
// tests.
func chunkRecord(t *testing.T, name string, budget uint64) *emulator.Stream {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := emulator.Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// feedAll drives a ChunkSegmenter over the stream in chunkLen-sized
// chunks and returns clones of every completed trace with copies of
// their dyn slices.
func feedAll(t *testing.T, st *emulator.Stream, cfg SelectConfig, chunkLen int) (traces []*Trace, dyns [][]emulator.Dyn) {
	t.Helper()
	cs := NewChunkSegmenter(cfg)
	cr := st.DecodeChunks(chunkLen)
	defer cr.Close()
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 {
			used, tr, ds := cs.Feed(chunk)
			chunk = chunk[used:]
			if tr == nil {
				break
			}
			traces = append(traces, tr.Clone())
			dyns = append(dyns, append([]emulator.Dyn(nil), ds...))
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return traces, dyns
}

// decodeAll decodes a whole recorded stream into one flat slice.
func decodeAll(t testing.TB, st *emulator.Stream) []emulator.Dyn {
	t.Helper()
	var all []emulator.Dyn
	cr := st.DecodeChunks(0)
	defer cr.Close()
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		all = append(all, chunk...)
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return all
}

// builderTraces is the selection oracle: Builder.Append run once per
// instruction over the committed stream. It returns every completed
// trace with the span of the stream it covers; a trailing partial trace
// is dropped, as the simulator drops it.
func builderTraces(all []emulator.Dyn, cfg SelectConfig) (traces []*Trace, dyns [][]emulator.Dyn) {
	b := NewBuilder(cfg)
	start := 0
	for i, d := range all {
		if b.Append(d.PC, d.Inst, d.Taken) {
			traces = append(traces, b.Finish(d.NextPC))
			dyns = append(dyns, all[start:i+1])
			b.Reset()
			start = i + 1
		}
	}
	return traces, dyns
}

// checkTrace fails the test unless a segmented trace and its dyn slice
// equal the oracle's.
func checkTrace(t testing.TB, what string, tr *Trace, dyns []emulator.Dyn, want *Trace, wantDyns []emulator.Dyn) {
	t.Helper()
	if !tracesEqual(tr, want) {
		t.Fatalf("%s differs:\nchunked %v\nbuilder %v", what, tr, want)
	}
	if len(dyns) != len(wantDyns) {
		t.Fatalf("%s: %d dyns, want %d", what, len(dyns), len(wantDyns))
	}
	for j := range wantDyns {
		if dyns[j] != wantDyns[j] {
			t.Fatalf("%s: dyn %d differs", what, j)
		}
	}
}

// TestChunkSegmenterMatchesBuilder drives ChunkSegmenter over recorded
// streams and requires the trace sequence — including the dyn slices —
// that Builder produces instruction by instruction, at chunk sizes
// chosen to land boundaries inside traces (1 splits every trace; 17 and
// 1000 are coprime to typical trace lengths; DefaultChunkLen is the
// production size).
func TestChunkSegmenterMatchesBuilder(t *testing.T) {
	const budget = 30_000
	cfgs := []SelectConfig{
		DefaultSelectConfig(),
		{MaxLen: 8, AlignMod: 4},
		{MaxLen: 16, AlignMod: 2},
	}
	for _, name := range []string{"gcc", "compress"} {
		st := chunkRecord(t, name, budget)
		all := decodeAll(t, st)
		for _, cfg := range cfgs {
			wantTr, wantDy := builderTraces(all, cfg)
			for _, chunkLen := range []int{1, 17, 1000, emulator.DefaultChunkLen} {
				gotTr, gotDy := feedAll(t, st, cfg, chunkLen)
				if len(gotTr) != len(wantTr) {
					t.Fatalf("%s cfg=%+v chunkLen=%d: %d traces, want %d",
						name, cfg, chunkLen, len(gotTr), len(wantTr))
				}
				for i := range wantTr {
					what := fmt.Sprintf("%s cfg=%+v chunkLen=%d: trace %d", name, cfg, chunkLen, i)
					checkTrace(t, what, gotTr[i], gotDy[i], wantTr[i], wantDy[i])
				}
			}
		}
	}
}

// FuzzChunkSegmenter checks ChunkSegmenter against the Builder oracle
// over random programs, random selection parameters and random chunk
// splits. Each chunk gets its own backing that is scrubbed once the
// segmenter has consumed it, as the decoder recycles its buffers, so a
// trace that kept pointing into an old chunk would show up as a
// mismatch.
func FuzzChunkSegmenter(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(3), []byte{0})
	f.Add(int64(2), uint8(7), uint8(3), []byte{16, 0, 231})
	f.Add(int64(3), uint8(15), uint8(1), []byte{0, 1, 2, 3, 255})
	f.Add(int64(4), uint8(0), uint8(0), []byte{6})
	f.Add(int64(5), uint8(11), uint8(6), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, maxLen, alignMod uint8, splits []byte) {
		cfg := SelectConfig{MaxLen: 1 + int(maxLen)%16, AlignMod: 1 + int(alignMod)%8}
		if len(splits) == 0 {
			splits = []byte{255}
		}
		var all []emulator.Dyn
		if _, err := emulator.New(randomProgram(seed)).Run(3_000, func(d emulator.Dyn) {
			all = append(all, d)
		}); err != nil {
			t.Fatal(err)
		}
		wantTr, wantDy := builderTraces(all, cfg)

		cs := NewChunkSegmenter(cfg)
		got := 0
		for pos, k := 0, 0; pos < len(all); k++ {
			n := 1 + int(splits[k%len(splits)])
			if n > len(all)-pos {
				n = len(all) - pos
			}
			buf := append([]emulator.Dyn(nil), all[pos:pos+n]...)
			pos += n
			for chunk := buf; len(chunk) > 0; {
				used, tr, dyns := cs.Feed(chunk)
				chunk = chunk[used:]
				if tr == nil {
					break
				}
				if got == len(wantTr) {
					t.Fatalf("cfg=%+v: more traces than the %d Builder produced", cfg, len(wantTr))
				}
				checkTrace(t, fmt.Sprintf("cfg=%+v: trace %d", cfg, got), tr, dyns, wantTr[got], wantDy[got])
				got++
			}
			clear(buf)
		}
		if got != len(wantTr) {
			t.Fatalf("cfg=%+v: %d traces, want %d", cfg, got, len(wantTr))
		}
	})
}

// tracesEqual compares every selection-relevant field of two traces.
func tracesEqual(a, b *Trace) bool {
	if len(a.PCs) != len(b.PCs) || a.Succ != b.Succ || a.BrMask != b.BrMask ||
		a.NumBr != b.NumBr || a.Flags != b.Flags ||
		a.EndsInReturn != b.EndsInReturn || a.EndsInIndirect != b.EndsInIndirect ||
		a.EndsInHalt != b.EndsInHalt {
		return false
	}
	for i := range a.PCs {
		if a.PCs[i] != b.PCs[i] || a.Insts[i] != b.Insts[i] {
			return false
		}
	}
	return true
}

// TestChunkSegmenterPending checks partial-trace state across chunk
// boundaries: a one-instruction chunk stream must report Pending
// between calls and produce a spanning trace staged from multiple
// chunks.
func TestChunkSegmenterPending(t *testing.T) {
	st := chunkRecord(t, "li", 1_000)
	cs := NewChunkSegmenter(DefaultSelectConfig())
	cr := st.DecodeChunks(1)
	defer cr.Close()
	sawPending := false
	traces := 0
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		used, tr, _ := cs.Feed(chunk)
		if used != len(chunk) {
			t.Fatalf("Feed consumed %d of a %d-instruction chunk without completing a trace", used, len(chunk))
		}
		if tr == nil && cs.Pending() > 0 {
			sawPending = true
		}
		if tr != nil {
			traces++
			if cs.Pending() != 0 {
				t.Fatalf("Pending %d after a completed trace", cs.Pending())
			}
		}
	}
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawPending {
		t.Error("no partial trace ever spanned a chunk boundary")
	}
	if traces == 0 {
		t.Error("no traces produced")
	}
}

// TestChunkSegmenterReset pins the resume-at-skip contract: after
// Reset, a segmenter holding a partial trace produces exactly the trace
// sequence a fresh segmenter produces from the resume point — sampled
// runs skip stream regions without segmenting them and must not stitch
// pre-skip instructions onto post-skip ones.
func TestChunkSegmenterReset(t *testing.T) {
	st := chunkRecord(t, "gcc", 50_000)
	cfg := DefaultSelectConfig()

	all := decodeAll(t, st) // one flat slice for offset slicing

	segment := func(cs *ChunkSegmenter, in []emulator.Dyn) []*Trace {
		var out []*Trace
		for len(in) > 0 {
			used, tr, _ := cs.Feed(in)
			in = in[used:]
			if tr == nil {
				break
			}
			out = append(out, tr.Clone())
		}
		return out
	}

	for _, skipTo := range []int{20_001, 20_007, 33_333} {
		used := NewChunkSegmenter(cfg)
		segment(used, all[:1_000]) // leave a partial trace pending with high likelihood
		if used.Pending() == 0 {
			// Feed single instructions until a partial is pending so the
			// reset has something to drop.
			for i := 1_000; i < len(all) && used.Pending() == 0; i++ {
				used.Feed(all[i : i+1])
			}
		}
		used.Reset()
		if used.Pending() != 0 {
			t.Fatalf("Pending = %d after Reset, want 0", used.Pending())
		}
		got := segment(used, all[skipTo:])
		want := segment(NewChunkSegmenter(cfg), all[skipTo:])
		if len(got) != len(want) {
			t.Fatalf("skipTo %d: %d traces after Reset, fresh segmenter %d", skipTo, len(got), len(want))
		}
		for i := range got {
			if got[i].ID() != want[i].ID() || got[i].Len() != want[i].Len() {
				t.Fatalf("skipTo %d: trace %d differs after Reset: %v vs %v", skipTo, i, got[i].ID(), want[i].ID())
			}
		}
	}
}
