// Command knnbench regenerates the kNN figures of the paper (Figures
// 13–16): query time and precision of the eight algorithm variants
// {HS, DF} × {Hyper, MinMax, MBR, GP} over an SS-tree.
//
// Usage:
//
//	knnbench [-fig N] [-scale S] [-seed N] [-quant none|f32|i8]
//
//	-fig      figure to run: 13, 14, 15, 16, or 0 for all (default 0);
//	          17 runs the index-comparison extension experiment
//	-scale    dataset/query scale relative to the paper's (default 0.02;
//	          1.0 reproduces the full cardinalities — budget hours)
//	-seed     RNG seed (default 1)
//	-shadow   audit every dominance check of the figures' (13–17) searches
//	          against Hyperbola and count per-criterion disagreements
//	          (Table 1 in vivo; slows checks)
//	-quant    quantized coarse-filter tier for frozen-snapshot searches
//	          (none, f32, i8; default f32 — results are identical across
//	          tiers, only the traversal cost changes; see DESIGN.md §12)
//	-load     open a snapshot directory written by datagen -freeze or
//	          hyperdomd/shard SaveDir and benchmark serving straight off
//	          the mmapped files (no tree rebuild) instead of the figures;
//	          prints open latency and queries/s
//
// The worker- and shard-scaling tables are benchkernel's (`make bench-scaling`).
//
// The shared observability flags apply as well; in particular
// `-trace out.json` samples every `-trace-every`-th search (default 16,
// matching README "Tracing a slow query") for execution tracing and
// exports the retained traces — tagged with the trace_id that /debug/slow
// entries carry — as Chrome trace_event JSON on exit (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hyperdom/internal/experiments"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
)

func main() {
	fig := flag.Int("fig", 0, "figure to run (13-16, 0 = all)")
	scale := flag.Float64("scale", 0.02, "workload scale relative to the paper")
	seed := flag.Int64("seed", 1, "random seed")
	shadow := flag.Bool("shadow", false,
		"shadow-evaluate every dominance check of the figures' searches against Hyperbola and count per-criterion disagreements")
	load := flag.String("load", "",
		"snapshot directory to open and benchmark (skips the figures and any index build)")
	quant := flag.String("quant", "f32",
		"quantized coarse-filter tier for frozen-snapshot searches (none, f32, i8)")
	pf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	qm, err := knn.ParseQuantMode(*quant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "knnbench: -quant: %v\n", err)
		os.Exit(2)
	}
	knn.SetQuantMode(qm)

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
	if *load != "" {
		if err := runLoaded(*load, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "knnbench: -load: %v\n", err)
			os.Exit(1)
		}
		return
	}
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

// runLoaded opens a snapshot directory and benchmarks serving directly off
// it: open+validate latency first (the cold-start the zero-copy format
// exists for), then sustained queries/s over the standard Gaussian query
// mix (centers 100±25 per coordinate, matching the synthetic corpora).
func runLoaded(dir string, seed int64) error {
	start := time.Now()
	x, err := shard.OpenDir(dir, shard.OpenOptions{Algorithm: knn.HS})
	if err != nil {
		return err
	}
	defer x.Close()
	openLat := time.Since(start)
	fmt.Printf("opened %s in %v: %d items, dim %d, %d shards\n",
		dir, openLat.Round(time.Microsecond), x.Len(), x.Dim(), x.Shards())

	rng := rand.New(rand.NewSource(seed))
	const nq, k = 2000, 10
	queries := make([]geom.Sphere, nq)
	for i := range queries {
		c := make([]float64, x.Dim())
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		queries[i] = geom.NewSphere(c, rng.Float64()*2)
	}
	for i := 0; i < 64; i++ { // warm the mapping and the scratch pools
		x.Search(queries[i%nq], k)
	}
	bstart := time.Now()
	for _, q := range queries {
		x.Search(q, k)
	}
	el := time.Since(bstart)
	fmt.Printf("%d queries (k=%d) in %v: %.0f queries/s\n",
		nq, k, el.Round(time.Millisecond), float64(nq)/el.Seconds())
	return nil
}
