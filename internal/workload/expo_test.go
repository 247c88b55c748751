package workload

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/sstree"
)

// TestMetricsExposition drives every instrumented layer a little — a
// PreparedPair over a few queries, knn.Search, a Verdicts batch, KNNBatch
// and a shadow-audited search — and checks the Prometheus text
// obs.WriteMetrics renders for them: # TYPE lines, non-zero work counters
// of the knn and workload layers, non-zero kNN-batch and shadow-audit
// counters, and no histogram family in either layer: library entry points
// count work and read no clock (DESIGN.md §8).
func TestMetricsExposition(t *testing.T) {
	defer obs.SetEnabled(obs.On())
	obs.SetEnabled(true)

	rng := rand.New(rand.NewSource(73))
	const d = 3
	items := make([]geom.Item, 600)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64() * 10
		}
		items[i] = geom.Item{ID: i, Sphere: geom.NewSphere(c, rng.Float64())}
	}
	ss := sstree.New(d)
	for _, it := range items {
		ss.Insert(it)
	}
	idx := knn.WrapPacked(ss.Freeze())
	queries := KNNQueries(items, 20, 5)

	pair := dominance.PreparePair(items[0].Sphere, items[1].Sphere)
	for _, q := range queries {
		pair.Dominates(q)
	}
	pair.FlushObs()
	knn.Search(idx, queries[0], 5, dominance.Hyperbola{}, knn.HS)
	Verdicts(dominance.Hyperbola{}, Dominance(items, 200, 6))
	KNNBatch(idx, queries, 5, 2, dominance.Hyperbola{}, knn.HS)
	knn.Search(idx, queries[1], 5, dominance.Shadowed{Criterion: dominance.MinMax{}}, knn.HS)

	var sb strings.Builder
	if err := obs.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`(?m)^# TYPE hyperdom_`,
		`(?m)^hyperdom_knn_nodes_visited [1-9]`,
		`(?m)^hyperdom_workload_verdicts_Hyperbola [1-9]`,
		`(?m)^hyperdom_workload_knn_batches [1-9]`,
		`(?m)^hyperdom_dominance_shadow_checks [1-9]`,
	} {
		if !regexp.MustCompile(want).MatchString(body) {
			t.Errorf("/metrics text has no line matching %s", want)
		}
	}
	if hist := regexp.MustCompile(`(?m)^# TYPE hyperdom_(knn|workload)_\S+ histogram$`).FindString(body); hist != "" {
		t.Errorf("/metrics text has a library-layer histogram: %s", hist)
	}
}
