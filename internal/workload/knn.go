package workload

import (
	"math/rand"

	"hyperdom/internal/dominance"
	"hyperdom/internal/engine"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

// kNN-workload observability, one add per batch like the dominance
// counters above.
var (
	obsKNNBatches = obs.New("workload.knn_batches")
	obsKNNQueries = obs.New("workload.knn_queries")
)

// KNNQueries draws n random query spheres from the dataset, the query
// model of the paper's kNN experiments (Section 7.2: query objects are
// dataset members).
func KNNQueries(items []geom.Item, n int, seed int64) []geom.Sphere {
	if len(items) == 0 {
		panic("workload: KNNQueries over empty dataset")
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Sphere, n)
	for i := range qs {
		qs[i] = items[rng.Intn(len(items))].Sphere
	}
	return qs
}

// KNNBatch answers the query workload on up to workers goroutines
// (engine.SearchBatch; workers ≤ 0 selects GOMAXPROCS) and returns the
// per-query results in query order. Freeze an SS-tree first to route the
// workers over the packed snapshot. Results are identical to serial
// knn.Search calls — the engine schedules, it does not approximate — and a
// query that panics panics the caller.
func KNNBatch(idx knn.Index, queries []geom.Sphere, k, workers int, crit dominance.Criterion, algo knn.Algorithm) []knn.Result {
	e := engine.New(idx, engine.WithWorkers(workers), engine.WithCriterion(crit), engine.WithAlgorithm(algo))
	defer e.Close()
	obsKNNBatches.Inc()
	obsKNNQueries.Add(uint64(len(queries)))
	return e.SearchBatch(queries, k)
}
