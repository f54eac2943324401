// Command traces analyzes the demanded trace stream of a benchmark:
// length and branch distributions, termination reasons, working-set
// size, and the hottest traces with disassembly. These are the frontend
// characteristics (average fetch bandwidth, trace variety) that drive
// every result in the paper.
//
// Usage:
//
//	traces -bench gcc -n 1000000
//	traces -bench go -top 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tracepre/internal/emulator"
	"tracepre/internal/stats"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

func main() {
	var (
		bench = flag.String("bench", "gcc", "benchmark name")
		n     = flag.Uint64("n", 1_000_000, "committed instructions")
		top   = flag.Int("top", 3, "hottest traces to disassemble")
	)
	flag.Parse()

	p, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traces:", err)
		os.Exit(1)
	}
	im, err := workload.Generate(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traces:", err)
		os.Exit(1)
	}

	// Segment a recording exactly as the simulator does, so these are
	// the traces it demands.
	st, err := emulator.Record(im, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traces:", err)
		os.Exit(1)
	}
	cr := st.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
	var (
		lenHist  [17]uint64
		brHist   [17]uint64
		total    uint64
		instrs   uint64
		endRet   uint64
		endInd   uint64
		endFull  uint64
		endAlign uint64
		hot      = map[trace.ID]uint64{}
		sample   = map[trace.ID]*trace.Trace{}
	)
	classify := func(tr *trace.Trace) {
		switch {
		case tr.EndsInReturn:
			endRet++
		case tr.EndsInIndirect:
			endInd++
		case tr.Len() == 16:
			endFull++
		default:
			endAlign++
		}
	}
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 {
			used, tr, _ := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			total++
			instrs += uint64(tr.Len())
			lenHist[tr.Len()]++
			brHist[tr.NumBr]++
			classify(tr)
			id := tr.ID()
			hot[id]++
			if _, ok := sample[id]; !ok {
				sample[id] = tr.Clone()
			}
		}
	}
	if err := cr.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "traces:", err)
		os.Exit(1)
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "traces: no traces produced")
		os.Exit(1)
	}

	t := stats.NewTable(fmt.Sprintf("trace stream of %s (%d instructions)", *bench, instrs),
		"metric", "value")
	t.AddRow("traces", total)
	t.AddRow("unique traces (working set)", len(hot))
	t.AddRow("avg trace length", float64(instrs)/float64(total))
	t.AddRow("end at return", pct(endRet, total))
	t.AddRow("end at indirect jump", pct(endInd, total))
	t.AddRow("end at 16-instr limit", pct(endFull, total))
	t.AddRow("end at alignment quantum", pct(endAlign, total))
	fmt.Print(t.String())

	fmt.Println("\ntrace length distribution:")
	histogram(lenHist[:], total)
	fmt.Println("\nconditional branches per trace:")
	histogram(brHist[:], total)

	// Hottest traces.
	type hotTrace struct {
		id    trace.ID
		count uint64
	}
	var hots []hotTrace
	for id, c := range hot {
		hots = append(hots, hotTrace{id, c})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].id.Start < hots[j].id.Start
	})
	if *top > len(hots) {
		*top = len(hots)
	}
	for k := 0; k < *top; k++ {
		h := hots[k]
		tr := sample[h.id]
		fmt.Printf("\nhot trace #%d: %v, %d executions (%.1f%% of stream)\n",
			k+1, h.id, h.count, float64(h.count)*100/float64(total))
		for i, pc := range tr.PCs {
			fmt.Printf("  0x%06x: %v\n", pc, tr.Insts[i])
		}
	}
}

func pct(part, total uint64) string {
	return fmt.Sprintf("%.1f%%", float64(part)*100/float64(total))
}

// histogram prints a bar per bucket (skipping empty buckets).
func histogram(h []uint64, total uint64) {
	var max uint64
	for _, v := range h {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return
	}
	for i, v := range h {
		if v == 0 {
			continue
		}
		fmt.Printf("  %2d |%-40s| %5.1f%%\n", i,
			stats.Bar(float64(v), float64(max), 40),
			float64(v)*100/float64(total))
	}
}
