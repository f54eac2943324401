// precon-anatomy dissects the preconstruction mechanism on a small
// hand-written program, mirroring the worked example of §2 of the
// paper: a procedure call and a loop produce region start points, the
// engine jumps ahead and constructs traces, and the demanded traces
// after the return and the loop exit are supplied from the buffers.
//
// It drives the simulated machine itself (pipeline.Simulator) one
// demanded trace at a time, so the engine gets exactly the idle
// slow-path port cycles the timing model grants it, and reads who
// supplied each trace from the difference of two Snapshots. It exits
// non-zero when preconstruction supplies no demanded trace.
//
//	go run ./examples/precon-anatomy
package main

import (
	"fmt"
	"log"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/pipeline"
	"tracepre/internal/precon"
	"tracepre/internal/program"
	"tracepre/internal/trace"
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

	// The paper's machine with a 64-entry trace cache and 64 entries of
	// preconstruction buffers.
	cfg := pipeline.DefaultConfig().WithTraceCache(64).WithPrecon(64)
	sim, err := pipeline.New(im, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The engine builds while a demanded trace retires; collect its
	// reports and print them under that trace.
	var built []string
	sim.PreconEngine().SetTraceHook(func(tr *trace.Trace, sp precon.StartPoint) {
		built = append(built, fmt.Sprintf("    engine built %v (len %d) for %s region at 0x%x",
			tr.ID(), tr.Len(), sp.Kind, sp.Addr))
	})

	const budget = 10_000
	rec, err := emulator.Record(im, budget)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.StartChunked(budget); err != nil {
		log.Fatal(err)
	}
	cr := rec.DecodeChunks(0)
	defer cr.Close()
	seg := trace.NewChunkSegmenter(cfg.Select)

	fmt.Println("\nexecution (trace by trace):")
	var ahead []trace.ID
	prev := sim.Snapshot()
	for done := false; !done; {
		chunk, ok := cr.Next()
		if !ok {
			break
		}
		for len(chunk) > 0 && !done {
			used, tr, dyns := seg.Feed(chunk)
			if tr == nil {
				break
			}
			chunk = chunk[used:]
			id := tr.ID()
			built = built[:0]
			if done, err = sim.RunTrace(tr, dyns); err != nil {
				log.Fatal(err)
			}
			cur := sim.Snapshot()
			switch {
			case cur.TCHits > prev.TCHits:
				fmt.Printf("  demand %v: trace cache hit\n", id)
			case cur.PreconSupplied > prev.PreconSupplied:
				ahead = append(ahead, id)
				fmt.Printf("  demand %v: SUPPLIED BY PRECONSTRUCTION\n", id)
			case cur.TCMisses > prev.TCMisses:
				fmt.Printf("  demand %v: miss, built by slow path\n", id)
			}
			for _, line := range built {
				fmt.Println(line)
			}
			prev = cur
		}
	}
	if err := cr.Err(); err != nil {
		log.Fatal(err)
	}
	res, err := sim.Finish()
	if err != nil {
		log.Fatal(err)
	}

	st := res.Precon
	fmt.Printf("\nsummary: %d start-point pushes, %d regions, %d traces built, %d demanded traces supplied ahead of need %v\n",
		st.StackPushes, st.RegionsActivated, st.TracesBuilt, len(ahead), ahead)
	if len(ahead) == 0 {
		log.Fatal("preconstruction supplied no demanded trace")
	}
}
