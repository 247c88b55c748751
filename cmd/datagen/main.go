// Command datagen writes the evaluation datasets to CSV so they can be
// inspected or consumed by external tooling. Each output row is
// "id,radius,c1,c2,…,cd".
//
// Usage:
//
//	datagen -dataset NAME [-n N] [-d D] [-mu MU] [-seed S] [-o FILE]
//
//	-dataset  synthetic | nba | color | texture | forest (default synthetic)
//	-n        synthetic only: number of spheres (default 100000)
//	-d        synthetic only: dimensionality (default 6)
//	-dist     synthetic only: center distribution, G or U (default G)
//	-mu       average radius μ; radii ~ N(μ, μ/4) clamped at 0 (default 50)
//	-seed     RNG seed (default 1)
//	-o        output file (default stdout)
//
// With -freeze DIR the dataset is additionally built into a sharded index
// and persisted as a packed snapshot directory (shard-NNNN.hds files plus
// manifest.json) that hyperdomd -snapshot-dir and knnbench -load open
// zero-copy — point hyperdomd's -snapshot-dir at DIR's parent, or name DIR
// "<root>/default". -shards/-substrate/-maxfill shape the frozen index.
// CSV floats round-trip exactly (strconv 'g' -1), so a snapshot frozen
// here answers bit-identically to an index built from the written CSV.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hyperdom/internal/dataset"
	"hyperdom/internal/packed"
	"hyperdom/internal/shard"
)

func main() {
	name := flag.String("dataset", "synthetic", "dataset: synthetic|nba|color|texture|forest")
	n := flag.Int("n", 100000, "synthetic: number of spheres")
	d := flag.Int("d", 6, "synthetic: dimensionality")
	dist := flag.String("dist", "G", "synthetic: center distribution (G or U)")
	mu := flag.Float64("mu", 50, "average radius")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output file (default stdout)")
	freeze := flag.String("freeze", "", "also build a sharded index and save it as a snapshot directory here")
	shards := flag.Int("shards", 2, "freeze: shard count")
	substrate := flag.String("substrate", "sstree", "freeze: index substrate (sstree|mtree|rtree)")
	maxFill := flag.Int("maxfill", 0, "freeze: substrate node capacity (0 = default)")
	flag.Parse()
	if packed.SubstrateFromString(*substrate) == packed.SubstrateUnknown {
		fatal("unknown -substrate %q", *substrate)
	}

	ps, err := buildPointSet(*name, *n, *d, *dist, *seed)
	if err != nil {
		fatal("%v", err)
	}
	items := dataset.Spheres(ps, dataset.GaussianRadii(*mu), *seed+1)

	// CSV goes to stdout only when no snapshot was asked for — a -freeze
	// run without -o should not flood the terminal with the corpus.
	if *out != "" || *freeze == "" {
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal("creating %s: %v", *out, err)
			}
			defer func() {
				if err := f.Close(); err != nil {
					fatal("closing %s: %v", *out, err)
				}
			}()
			w = f
		}
		if err := dataset.WriteCSV(w, items); err != nil {
			fatal("writing: %v", err)
		}
	}

	if *freeze != "" {
		if len(items) == 0 {
			fatal("-freeze: empty dataset")
		}
		dim := len(items[0].Sphere.Center)
		x, err := shard.Build(items, dim, shard.Options{
			Shards:    *shards,
			Substrate: *substrate,
			MaxFill:   *maxFill,
		})
		if err != nil {
			fatal("-freeze: %v", err)
		}
		defer x.Close()
		if err := x.SaveDir(*freeze); err != nil {
			fatal("-freeze: %v", err)
		}
		fmt.Fprintf(os.Stderr, "datagen: froze %d items (dim %d) into %s (%d shards, %s)\n",
			x.Len(), dim, *freeze, x.Shards(), *substrate)
	}
}

// buildPointSet resolves the -dataset/-n/-d/-dist flags into a point set.
func buildPointSet(name string, n, d int, dist string, seed int64) (dataset.PointSet, error) {
	switch name {
	case "synthetic":
		var cd dataset.Distribution
		switch dist {
		case "G":
			cd = dataset.Gaussian
		case "U":
			cd = dataset.Uniform
		default:
			return dataset.PointSet{}, fmt.Errorf("unknown distribution %q (want G or U)", dist)
		}
		if n <= 0 || d <= 0 {
			return dataset.PointSet{}, fmt.Errorf("invalid synthetic shape n=%d d=%d", n, d)
		}
		return dataset.SyntheticCenters(n, d, cd, seed), nil
	case "nba":
		return dataset.NBA(), nil
	case "color":
		return dataset.Color(), nil
	case "texture":
		return dataset.Texture(), nil
	case "forest":
		return dataset.Forest(), nil
	}
	return dataset.PointSet{}, fmt.Errorf("unknown dataset %q", name)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
	os.Exit(2)
}
