// missrate-sweep reproduces one panel of the paper's Figure 5 for a
// chosen benchmark: trace cache misses per 1000 instructions as a
// function of combined trace-cache + preconstruction-buffer storage,
// one curve per buffer size, rendered as an ASCII chart.
//
//	go run ./examples/missrate-sweep [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"tracepre/internal/core"
)

func main() {
	bench := "go"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	const budget = 1_000_000

	res, err := core.Figure5(context.Background(), budget, []string{bench})
	if err != nil {
		log.Fatal(err)
	}

	// Group points into curves by buffer size.
	curves := map[int][]core.Fig5Point{}
	var maxMiss float64
	for _, p := range res.Points {
		curves[p.PBEntries] = append(curves[p.PBEntries], p)
		if p.MissPerKI > maxMiss {
			maxMiss = p.MissPerKI
		}
	}
	var pbs []int
	for pb := range curves {
		pbs = append(pbs, pb)
	}
	sort.Ints(pbs)

	fmt.Printf("Figure 5 panel [%s]: misses per 1000 instructions vs combined entries\n\n", bench)
	const width = 48
	for _, pb := range pbs {
		label := "no preconstruction"
		if pb > 0 {
			label = fmt.Sprintf("%d-entry precon buffer", pb)
		}
		fmt.Printf("%s:\n", label)
		for _, p := range curves[pb] {
			bar := 0
			if maxMiss > 0 {
				bar = int(p.MissPerKI / maxMiss * width)
			}
			fmt.Printf("  %5d+%-4d |%-*s| %6.2f\n",
				p.TCEntries, p.PBEntries, width, strings.Repeat("#", bar), p.MissPerKI)
		}
		fmt.Println()
	}
	fmt.Println("(compare equal combined sizes across curves: storage spent on")
	fmt.Println(" preconstruction buffers beats storage spent on more trace cache)")
}
