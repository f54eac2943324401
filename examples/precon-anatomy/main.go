// precon-anatomy dissects the preconstruction mechanism on a small
// hand-written program, mirroring the worked example of §2 of the
// paper: a procedure call and a loop produce region start points, the
// engine jumps ahead and constructs traces, and the demanded traces
// after the return and the loop exit are supplied from the buffers.
//
//	go run ./examples/precon-anatomy
package main

import (
	"fmt"
	"log"

	"tracepre/internal/bpred"
	"tracepre/internal/cache"
	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/precon"
	"tracepre/internal/program"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
)

// buildExample assembles a program shaped like the paper's Figure 2:
// block a calls a procedure (blocks b, c-loop, d/e/f/g diamond), then
// block h, an i-loop, and block j.
func buildExample() (*program.Image, error) {
	b := program.NewBuilder(0x1000)
	// Block a: setup, then the call.
	b.Label("a")
	b.ALUI(isa.OpAddI, 1, 0, 3) // c-loop trip count
	b.ALUI(isa.OpAddI, 2, 0, 2) // i-loop trip count
	b.Call("proc")
	// Block h after the return.
	b.Label("h")
	b.ALUI(isa.OpAddI, 4, 4, 10)
	b.ALUI(isa.OpAddI, 4, 4, 11)
	// The i loop.
	b.Label("iloop")
	b.ALUI(isa.OpAddI, 5, 5, 1)
	b.ALUI(isa.OpAddI, 2, 2, -1)
	b.Branch(isa.OpBne, 2, 0, "iloop")
	// Block j.
	b.Label("j")
	b.ALUI(isa.OpAddI, 6, 6, 1)
	b.ALUI(isa.OpAddI, 6, 6, 2)
	b.ALUI(isa.OpAddI, 6, 6, 3)
	b.Halt()
	// The procedure: block b, the c loop, then a biased diamond.
	b.Label("proc")
	b.ALUI(isa.OpAddI, 3, 0, 0) // block b
	b.Label("cloop")
	b.ALUI(isa.OpAddI, 3, 3, 1)
	b.ALUI(isa.OpAddI, 1, 1, -1)
	b.Branch(isa.OpBne, 1, 0, "cloop")
	// Diamond: d, then e or f, then g.
	b.Branch(isa.OpBeq, 3, 0, "f_blk") // never taken (r3 = 3)
	b.ALUI(isa.OpAddI, 7, 7, 5)        // block e
	b.Jmp("g_blk")
	b.Label("f_blk")
	b.ALUI(isa.OpAddI, 7, 7, 6)
	b.Label("g_blk")
	b.ALUI(isa.OpAddI, 7, 7, 7)
	b.Ret()
	return b.Build()
}

func main() {
	im, err := buildExample()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("static program:")
	fmt.Print(im.Disassemble(im.Base, im.NumInstrs()))

	bim := bpred.MustNewBimodal(1024)
	ic := cache.MustNew(cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4})
	tc := tracecache.MustNew(tracecache.Config{Entries: 64, Assoc: 2})
	buf := tracecache.MustNewBuffers(tracecache.Config{Entries: 64, Assoc: 2})
	eng := precon.MustNew(precon.DefaultConfig(), im, bim, precon.NewSlowPathPort(ic), tc, buf)

	eng.SetTraceHook(func(tr *trace.Trace, sp precon.StartPoint) {
		fmt.Printf("    engine built %v (len %d) for %s region at 0x%x\n",
			tr.ID(), tr.Len(), sp.Kind, sp.Addr)
	})

	fmt.Println("\nexecution (trace by trace):")
	rec, err := emulator.Record(im, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	cr := rec.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(trace.DefaultSelectConfig())
	supplied := 0
	for {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 {
			used, tr, dyns := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			id := tr.ID()
			eng.OnDemandFetch(id.Start)
			if _, hit := tc.Lookup(id); hit {
				fmt.Printf("  demand %v: trace cache hit\n", id)
			} else if got, hit := buf.Take(id); hit {
				supplied++
				tc.Insert(got)
				fmt.Printf("  demand %v: SUPPLIED BY PRECONSTRUCTION\n", id)
			} else {
				tc.Insert(tr.Clone())
				fmt.Printf("  demand %v: miss, built by slow path\n", id)
			}
			for _, d := range dyns {
				if d.Inst.IsBranch() {
					bim.Update(d.PC, d.Taken)
				}
				eng.Observe(d)
			}
			eng.Step(16) // idle slow-path cycles granted to the engine
		}
	}
	if err := cr.Err(); err != nil {
		log.Fatal(err)
	}

	st := eng.Stats()
	fmt.Printf("\nsummary: %d start-point pushes, %d regions, %d traces built, %d demanded traces supplied ahead of need\n",
		st.StackPushes, st.RegionsActivated, st.TracesBuilt, supplied)
}
