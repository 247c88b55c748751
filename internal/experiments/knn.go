package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/sstree"
	"hyperdom/internal/stats"
)

// KnnVariant is one of the eight algorithm/criterion combinations the
// paper's kNN figures plot: {HS, DF} × {Hyper, MinMax, MBR, GP}.
// Trigonometric is excluded because it is not correct and could miss true
// answers, exactly as Section 7.2 explains.
type KnnVariant struct {
	Algo knn.Algorithm
	Crit dominance.Criterion
}

// Name returns the paper's label, e.g. "HS(Hyper)".
func (v KnnVariant) Name() string {
	short := v.Crit.Name()
	if short == "Hyperbola" {
		short = "Hyper"
	}
	return fmt.Sprintf("%s(%s)", v.Algo, short)
}

// KnnVariants returns the eight variants in the paper's plotting order.
func KnnVariants() []KnnVariant {
	criteria := []dominance.Criterion{
		dominance.Hyperbola{}, dominance.MinMax{}, dominance.MBR{}, dominance.GP{},
	}
	var out []KnnVariant
	for _, algo := range []knn.Algorithm{knn.HS, knn.DF} {
		for _, c := range criteria {
			out = append(out, KnnVariant{Algo: algo, Crit: c})
		}
	}
	return out
}

// KnnMetrics are the two measures of Figures 13–16 for one variant.
type KnnMetrics struct {
	QueryNs   float64 // mean wall time per kNN query
	Precision float64 // correctly returned / returned, vs Definition 2 truth
}

// KnnRow is one sweep point of a kNN experiment.
type KnnRow struct {
	Label   string
	Metrics map[string]KnnMetrics // keyed by variant name
}

// KnnResult is one kNN figure.
type KnnResult struct {
	Figure  string
	Sweep   string
	Rows    []KnnRow
	Queries int
}

// runKnn builds an SS-tree over the items, runs the query batch through
// all eight variants, and measures time and precision against the
// Definition 2 ground truth (brute force with the optimal criterion).
func (cfg Config) runKnn(items []geom.Item, queries []geom.Sphere, k int) map[string]KnnMetrics {
	if len(items) == 0 || len(queries) == 0 {
		panic("experiments: empty kNN workload")
	}
	dim := items[0].Sphere.Dim()
	tree := sstree.New(dim)
	for _, it := range items {
		tree.Insert(it)
	}
	idx := knn.WrapSSTree(tree)

	truths := make([]map[int]bool, len(queries))
	for i, q := range queries {
		truth := map[int]bool{}
		for _, it := range knn.BruteForce(items, q, k, dominance.Hyperbola{}).Items {
			truth[it.ID] = true
		}
		truths[i] = truth
	}

	out := make(map[string]KnnMetrics, 8)
	for _, v := range KnnVariants() {
		crit := cfg.criterion(v.Crit)
		var correct, returned int
		start := time.Now()
		for i, q := range queries {
			res := knn.Search(idx, q, k, crit, v.Algo)
			returned += len(res.Items)
			for _, it := range res.Items {
				if truths[i][it.ID] {
					correct++
				}
			}
		}
		elapsed := time.Since(start)
		prec := 1.0
		if returned > 0 {
			prec = float64(correct) / float64(returned)
		}
		out[v.Name()] = KnnMetrics{
			QueryNs:   float64(elapsed.Nanoseconds()) / float64(len(queries)),
			Precision: prec,
		}
	}
	return out
}

// knnQueries draws query hyperspheres from the data distribution.
func knnQueries(n, dim int, mu float64, seed int64) []geom.Sphere {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Sphere, n)
	for i := range out {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		r := mu + rng.NormFloat64()*mu/4
		if r < 0 {
			r = 0
		}
		out[i] = geom.NewSphere(c, r)
	}
	return out
}

// Fig13 — effect of the average radius μ on kNN queries (synthetic).
func Fig13(cfg Config) KnnResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 1000)
	nq := cfg.scaled(200, 5)
	res := KnnResult{Figure: "Figure 13 (kNN, synthetic)", Sweep: "Ave. radius", Queries: nq}
	for _, mu := range RadiusSweep {
		ps := dataset.SyntheticCenters(n, DefaultDim, dataset.Gaussian, cfg.Seed)
		items := dataset.Spheres(ps, dataset.GaussianRadii(mu), cfg.Seed+int64(mu))
		queries := knnQueries(nq, DefaultDim, mu, cfg.Seed+99)
		res.Rows = append(res.Rows, KnnRow{
			Label:   fmt.Sprintf("%g", mu),
			Metrics: cfg.runKnn(items, queries, DefaultK),
		})
	}
	return res
}

// Fig14 — effect of the parameter k.
func Fig14(cfg Config) KnnResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 1000)
	nq := cfg.scaled(200, 5)
	ps := dataset.SyntheticCenters(n, DefaultDim, dataset.Gaussian, cfg.Seed)
	items := dataset.Spheres(ps, dataset.GaussianRadii(DefaultRadius), cfg.Seed)
	queries := knnQueries(nq, DefaultDim, DefaultRadius, cfg.Seed+99)
	res := KnnResult{Figure: "Figure 14 (kNN, synthetic)", Sweep: "k", Queries: nq}
	for _, k := range KSweep {
		res.Rows = append(res.Rows, KnnRow{
			Label:   fmt.Sprintf("%d", k),
			Metrics: cfg.runKnn(items, queries, k),
		})
	}
	return res
}

// Fig15 — effect of the data size N.
func Fig15(cfg Config) KnnResult {
	cfg = cfg.normalized()
	nq := cfg.scaled(200, 5)
	res := KnnResult{Figure: "Figure 15 (kNN, synthetic)", Sweep: "Datasize", Queries: nq}
	for _, base := range SizeSweep {
		n := cfg.scaled(base, 500)
		ps := dataset.SyntheticCenters(n, DefaultDim, dataset.Gaussian, cfg.Seed+int64(base))
		items := dataset.Spheres(ps, dataset.GaussianRadii(DefaultRadius), cfg.Seed+int64(base))
		queries := knnQueries(nq, DefaultDim, DefaultRadius, cfg.Seed+99)
		res.Rows = append(res.Rows, KnnRow{
			Label:   fmt.Sprintf("%dk", base/1000),
			Metrics: cfg.runKnn(items, queries, DefaultK),
		})
	}
	return res
}

// Fig16 — effect of the dimensionality d.
func Fig16(cfg Config) KnnResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 1000)
	nq := cfg.scaled(200, 5)
	res := KnnResult{Figure: "Figure 16 (kNN, synthetic)", Sweep: "Dimensionality", Queries: nq}
	for _, d := range DimSweep {
		ps := dataset.SyntheticCenters(n, d, dataset.Gaussian, cfg.Seed+int64(d))
		items := dataset.Spheres(ps, dataset.GaussianRadii(DefaultRadius), cfg.Seed+int64(d))
		queries := knnQueries(nq, d, DefaultRadius, cfg.Seed+99)
		res.Rows = append(res.Rows, KnnRow{
			Label:   fmt.Sprintf("%d", d),
			Metrics: cfg.runKnn(items, queries, DefaultK),
		})
	}
	return res
}

// TimeTable renders the query-time panel of a kNN figure.
func (r KnnResult) TimeTable() stats.Table {
	return r.table("query time (ms)", func(m KnnMetrics) string {
		return fmt.Sprintf("%.2f", m.QueryNs/1e6)
	})
}

// PrecisionTable renders the precision panel.
func (r KnnResult) PrecisionTable() stats.Table {
	return r.table("precision (%)", func(m KnnMetrics) string {
		return fmt.Sprintf("%.1f", m.Precision*100)
	})
}

func (r KnnResult) table(metric string, format func(KnnMetrics) string) stats.Table {
	var names []string
	for _, v := range KnnVariants() {
		names = append(names, v.Name())
	}
	t := stats.Table{
		Title:  fmt.Sprintf("%s — %s (%d queries/point)", r.Figure, metric, r.Queries),
		Header: append([]string{r.Sweep}, names...),
	}
	for _, row := range r.Rows {
		cells := []string{row.Label}
		for _, name := range names {
			cells = append(cells, format(row.Metrics[name]))
		}
		t.AddRow(cells...)
	}
	return t
}
