// Command knnbench regenerates the kNN figures of the paper (Figures
// 13–16): query time and precision of the eight algorithm variants
// {HS, DF} × {Hyper, MinMax, MBR, GP} over an SS-tree.
//
// Usage:
//
//	knnbench [-fig N] [-scale S] [-seed N] [-shadow]
//
//	-fig      figure to run: 13, 14, 15, 16, or 0 for all (default 0);
//	          17 runs the index-comparison extension experiment
//	-scale    dataset/query scale relative to the paper's (default 0.02;
//	          1.0 reproduces the full cardinalities — budget hours)
//	-seed     RNG seed (default 1)
//	-shadow   audit every dominance check of the figures' (13–17) searches
//	          against Hyperbola and count per-criterion disagreements
//	          (Table 1 in vivo; slows checks)
//
// The worker- and shard-scaling tables, the quantized-tier comparison and
// the snapshot-load timing are benchkernel's (`make bench-scaling`,
// `make bench`).
//
// The shared observability flags apply as well: -cpuprofile and -memprofile
// write profiles, and -metrics prints to stderr the counters each figure's
// searches moved (DESIGN.md §9). Only hyperdomd serves telemetry over HTTP.
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperdom/internal/experiments"
	"hyperdom/internal/obs"
)

func main() {
	fig := flag.Int("fig", 0, "figure to run (13-16, 0 = all)")
	scale := flag.Float64("scale", 0.02, "workload scale relative to the paper")
	seed := flag.Int64("seed", 1, "random seed")
	shadow := flag.Bool("shadow", false,
		"shadow-evaluate every dominance check of the figures' searches against Hyperbola and count per-criterion disagreements")
	pf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Figure timings must stay comparable to the paper's, so the counter
	// gate stays off unless observability output was actually asked for.
	if !pf.Wanted() {
		obs.SetEnabled(false)
	}
	stop, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "knnbench: %v\n", err)
		os.Exit(2)
	}
	defer stop()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Shadow: *shadow}
	if *fig == 17 {
		pf.Figure(17, func() { fmt.Println(experiments.RunIndexComparison(cfg).Table().Render()) })
		return
	}
	runners := map[int]func(experiments.Config) experiments.KnnResult{
		13: experiments.Fig13,
		14: experiments.Fig14,
		15: experiments.Fig15,
		16: experiments.Fig16,
	}
	order := []int{13, 14, 15, 16}

	selected := order
	if *fig != 0 {
		if _, ok := runners[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "knnbench: unknown figure %d (want 13-16)\n", *fig)
			os.Exit(2)
		}
		selected = []int{*fig}
	}

	for _, f := range selected {
		pf.Figure(f, func() {
			res := runners[f](cfg)
			fmt.Println(res.TimeTable().Render())
			fmt.Println(res.PrecisionTable().Render())
		})
	}
}
