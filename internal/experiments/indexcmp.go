package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/mtree"
	"hyperdom/internal/rtree"
	"hyperdom/internal/sstree"
	"hyperdom/internal/stats"
)

// IndexComparison is an extension experiment beyond the paper's figures:
// it quantifies the claim the introduction cites from the sphere-tree
// literature ([31, 20, 18]) — that sphere-bounded indexes beat
// rectangle-bounded ones for similarity search over high-dimensional
// clustered data — by running the same Hyperbola-based kNN queries over an
// SS-tree, an M-tree and an R-tree and reporting nodes visited and wall
// time per query.
type IndexComparisonResult struct {
	Rows    []IndexComparisonRow
	Queries int
}

// IndexComparisonRow is one dimensionality point.
type IndexComparisonRow struct {
	Dim     int
	Metrics map[string]IndexMetrics // keyed by index name
}

// IndexMetrics are the per-index measurements.
type IndexMetrics struct {
	Nodes   float64 // mean index nodes visited per query
	QueryNs float64 // mean wall time per query
}

// IndexNames lists the compared indexes in presentation order.
func IndexNames() []string { return []string{"SS-tree", "M-tree", "R-tree"} }

// RunIndexComparison executes the experiment. Data is a seeded mixture of
// Gaussian clusters (the image-feature-like workload the literature
// evaluates on).
func RunIndexComparison(cfg Config) IndexComparisonResult {
	cfg = cfg.normalized()
	n := cfg.scaled(DefaultSize, 2000)
	nq := cfg.scaled(200, 10)
	res := IndexComparisonResult{Queries: nq}
	crit := cfg.criterion(dominance.Hyperbola{})
	for _, d := range []int{4, 8, 16, 32} {
		items := clusteredItems(cfg.Seed+int64(d), d, n, 30, 8)
		queries := make([]geom.Sphere, nq)
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(d)))
		for i := range queries {
			queries[i] = items[rng.Intn(len(items))].Sphere
		}

		ss := sstree.New(d)
		mt := mtree.New(d)
		rt := rtree.New(d)
		for _, it := range items {
			ss.Insert(it)
			mt.Insert(it)
			rt.Insert(it)
		}
		row := IndexComparisonRow{Dim: d, Metrics: map[string]IndexMetrics{}}
		for _, idx := range []struct {
			name string
			i    knn.Index
		}{
			{"SS-tree", knn.WrapSSTree(ss)},
			{"M-tree", knn.WrapMTree(mt)},
			{"R-tree", knn.WrapRTree(rt)},
		} {
			var nodes int
			start := time.Now()
			for _, q := range queries {
				r := knn.Search(idx.i, q, DefaultK, crit, knn.HS)
				nodes += r.Stats.NodesVisited
			}
			elapsed := time.Since(start)
			row.Metrics[idx.name] = IndexMetrics{
				Nodes:   float64(nodes) / float64(nq),
				QueryNs: float64(elapsed.Nanoseconds()) / float64(nq),
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table renders the comparison.
func (r IndexComparisonResult) Table() stats.Table {
	t := stats.Table{
		Title:  fmt.Sprintf("Index comparison — kNN with HS(Hyper) on clustered data (%d queries/point)", r.Queries),
		Header: []string{"Dim"},
	}
	for _, name := range IndexNames() {
		t.Header = append(t.Header, name+" nodes", name+" ms")
	}
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%d", row.Dim)}
		for _, name := range IndexNames() {
			m := row.Metrics[name]
			cells = append(cells,
				fmt.Sprintf("%.0f", m.Nodes),
				fmt.Sprintf("%.2f", m.QueryNs/1e6))
		}
		t.AddRow(cells...)
	}
	return t
}

// clusteredItems draws n d-dimensional spheres from a seeded mixture of
// Gaussian clusters over [0,100]^d with unit-scale radii.
func clusteredItems(seed int64, d, n, clusters int, spread float64) []geom.Item {
	rng := rand.New(rand.NewSource(seed))
	means := make([][]float64, clusters)
	for i := range means {
		m := make([]float64, d)
		for j := range m {
			m[j] = rng.Float64() * 100
		}
		means[i] = m
	}
	items := make([]geom.Item, n)
	for i := range items {
		m := means[rng.Intn(clusters)]
		c := make([]float64, d)
		for j := range c {
			c[j] = m[j] + rng.NormFloat64()*spread
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()), ID: i}
	}
	return items
}
