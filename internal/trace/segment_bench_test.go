package trace_test

import (
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

// BenchmarkSegmenter times trace selection alone: one ChunkSegmenter
// over 1M instructions of the gcc workload's recorded stream, decoded
// beforehand into chunks of the decoder's default length, under the
// paper's selection rules. It reports ns/instr, the per-instruction
// cost each group of a sweep pays once.
func BenchmarkSegmenter(b *testing.B) {
	const budget = 1_000_000
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	st, err := emulator.Record(im, budget)
	if err != nil {
		b.Fatal(err)
	}
	var chunks [][]emulator.Dyn
	n := 0
	cr := st.DecodeChunks(0)
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		chunks = append(chunks, append([]emulator.Dyn(nil), chunk...))
		n += len(chunk)
	}
	cr.Close()
	if err := cr.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
		for _, chunk := range chunks {
			for len(chunk) > 0 {
				used, tr, _ := seg.Feed(chunk)
				chunk = chunk[used:]
				if tr == nil {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/instr")
}
