// Command workload generates and inspects the synthetic SPECint95-like
// benchmark programs: static structure, control-flow statistics, and
// dynamic characteristics like trace working-set size and branch bias.
//
// Usage:
//
//	workload -bench gcc
//	workload -bench go -n 1000000 -disasm 24
package main

import (
	"flag"
	"fmt"
	"os"

	"tracepre/internal/emulator"
	"tracepre/internal/program"
	"tracepre/internal/stats"
	"tracepre/internal/trace"
	"tracepre/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "gcc", "benchmark name")
		n      = flag.Uint64("n", 1_000_000, "instructions to execute for dynamic statistics")
		disasm = flag.Int("disasm", 0, "disassemble this many instructions from the entry point")
		list   = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	if *list {
		for _, b := range workload.Names() {
			fmt.Println(b)
		}
		return
	}

	p, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}
	im, err := workload.Generate(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}

	st := program.ComputeStats(im)
	t := stats.NewTable(fmt.Sprintf("workload %s: static structure", p.Name), "metric", "value")
	t.AddRow("static instructions", st.Instrs)
	t.AddRow("code bytes", st.Instrs*4)
	t.AddRow("basic blocks", st.Blocks)
	t.AddRow("avg block size", st.AvgBlockSize)
	t.AddRow("conditional branches", st.CondBranches)
	t.AddRow("backward branches", st.BackBranches)
	t.AddRow("calls", st.Calls)
	t.AddRow("returns", st.Returns)
	t.AddRow("indirect jumps", st.IndJumps)
	fmt.Print(t.String())

	// Dynamic statistics over the first n instructions, segmented from a
	// recording exactly as the simulator segments it.
	rec, err := emulator.Record(im, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}
	cr := rec.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
	unique := map[trace.ID]bool{}
	var ran, traces, branches, taken, calls uint64
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		ran += uint64(len(chunk))
		for _, d := range chunk {
			if d.Inst.IsBranch() {
				branches++
				if d.Taken {
					taken++
				}
			}
			if d.Inst.IsCall() {
				calls++
			}
		}
		for len(chunk) > 0 {
			used, tr, _ := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			traces++
			unique[tr.ID()] = true
		}
	}
	if err := cr.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}

	d := stats.NewTable(fmt.Sprintf("dynamic statistics (%d instructions)", ran), "metric", "value")
	d.AddRow("traces", traces)
	d.AddRow("unique traces (working set)", len(unique))
	d.AddRow("avg trace length", float64(ran)/float64(traces))
	d.AddRow("branch frequency", float64(branches)/float64(ran))
	d.AddRow("taken fraction", float64(taken)/float64(branches))
	d.AddRow("call frequency", float64(calls)/float64(ran))
	fmt.Print(d.String())

	if *disasm > 0 {
		fmt.Printf("\nentry disassembly:\n%s", im.Disassemble(im.Entry, *disasm))
	}
}
