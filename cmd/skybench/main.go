// Command skybench regenerates every table and figure of the paper plus its
// quantified performance claims, printing paper-versus-measured tables.
//
// Usage:
//
//	skybench                 # all experiments at the default 1e-4 scale
//	skybench -run E6,E7      # a subset
//	skybench -scale 1e-3     # ten times more data
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sdss/internal/expt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skybench: ")
	var (
		scale = flag.Float64("scale", 1e-4, "fraction of the full 3e8-object survey to simulate")
		seed  = flag.Int64("seed", 1, "random seed")
		nodes = flag.Int("nodes", 20, "simulated cluster width")
		run   = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	all := expt.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	cfg := expt.Config{Scale: *scale, Seed: *seed, Nodes: *nodes}
	fmt.Printf("skybench: scale %g (%d objects), seed %d, %d nodes\n",
		*scale, cfg.Objects(), *seed, *nodes)
	start := time.Now()
	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if err := e.Run(cfg, os.Stdout); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
		}
	}
	fmt.Printf("\ndone in %v\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		os.Exit(1)
	}
}
