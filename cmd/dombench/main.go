// Command dombench regenerates the dominance-operator figures of the paper
// (Figures 8–12): execution time, precision and recall of the five decision
// criteria under the paper's parameter sweeps.
//
// Usage:
//
//	dombench [-fig N] [-scale S] [-seed N] [-timing D]
//
//	-fig    figure to run: 8, 9, 10, 11, 12, or 0 for all (default 0)
//	-scale  dataset/query scale relative to the paper's (default 0.05;
//	        1.0 reproduces the full cardinalities)
//	-seed   RNG seed (default 1)
//	-timing per-criterion timing budget per sweep point (default 50ms)
//	-data   run the criteria comparison on spheres loaded from a CSV file
//	        ("id,radius,c1,…,cd", as written by datagen) instead of the
//	        built-in figures — the path for users who hold the paper's
//	        actual datasets
//
// The shared observability flags apply as well: -cpuprofile and -memprofile
// write profiles, and -metrics prints to stderr the counters each figure
// moved (DESIGN.md §9).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/experiments"
	"hyperdom/internal/obs"
	"hyperdom/internal/stats"
	"hyperdom/internal/workload"

	"hyperdom/internal/dataset"
)

func main() {
	fig := flag.Int("fig", 0, "figure to run (8-12, 0 = all)")
	scale := flag.Float64("scale", 0.05, "workload scale relative to the paper")
	seed := flag.Int64("seed", 1, "random seed")
	timing := flag.Duration("timing", 50*time.Millisecond, "per-criterion timing budget")
	dataFile := flag.String("data", "", "CSV file of spheres to run the comparison on")
	queries := flag.Int("queries", 10000, "-data only: dominance queries to draw")
	pf := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// Figure timings must stay comparable to the paper's, so the counter
	// gate stays off unless observability output was actually asked for.
	if !pf.Wanted() {
		obs.SetEnabled(false)
	}
	stop, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dombench: %v\n", err)
		os.Exit(2)
	}
	defer stop()

	if *dataFile != "" {
		if err := runOnFile(*dataFile, *queries, *seed, *timing); err != nil {
			fmt.Fprintf(os.Stderr, "dombench: %v\n", err)
			os.Exit(2)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, MinTiming: *timing}
	runners := map[int]func(experiments.Config) experiments.DomResult{
		8:  experiments.Fig8,
		9:  experiments.Fig9,
		10: experiments.Fig10,
		11: experiments.Fig11,
		12: experiments.Fig12,
	}
	order := []int{8, 9, 10, 11, 12}

	selected := order
	if *fig != 0 {
		if _, ok := runners[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "dombench: unknown figure %d (want 8-12)\n", *fig)
			os.Exit(2)
		}
		selected = []int{*fig}
	}

	for _, f := range selected {
		pf.Figure(f, func() {
			res := runners[f](cfg)
			fmt.Println(res.TimeTable().Render())
			if f != 11 && f != 12 { // the paper reports time only for Figs 11–12
				fmt.Println(res.PrecisionTable().Render())
				fmt.Println(res.RecallTable().Render())
			}
		})
	}
}

// runOnFile runs the five-criteria comparison on spheres loaded from a CSV
// file.
func runOnFile(path string, queries int, seed int64, timing time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	items, err := dataset.LoadCSV(f)
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return fmt.Errorf("%s: no spheres", path)
	}
	w := workload.Dominance(items, queries, seed)
	truth := workload.Verdicts(dominance.Hyperbola{}, w)
	table := stats.Table{
		Title:  fmt.Sprintf("%s — %d spheres (%dd), %d queries", path, len(items), items[0].Sphere.Dim(), queries),
		Header: []string{"criterion", "ns/op", "precision%", "recall%"},
	}
	for _, crit := range dominance.All() {
		acc := workload.Compare(workload.Verdicts(crit, w), truth)
		per := workload.TimePerOp(crit, w, timing)
		table.AddRow(
			crit.Name(),
			fmt.Sprintf("%d", per.Nanoseconds()),
			fmt.Sprintf("%.1f", acc.Precision()*100),
			fmt.Sprintf("%.1f", acc.Recall()*100),
		)
	}
	fmt.Println(table.Render())
	return nil
}
