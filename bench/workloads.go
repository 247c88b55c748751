package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"hyperdom/internal/dataset"
	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/workload"
)

// spec is one workload: the corpus shape, how hyperdomd is started over
// it, and the operation mix. The fields are the inputs the serving path's
// behaviour depends on (n, d, radius scale → result-set size and scan
// fraction; shard count; heap-built vs. mmap-backed index; op mix).
type spec struct {
	name     string
	why      string
	n, d     int
	radiusMu float64 // radii ~ N(μ, μ/4), the paper's Table 2 model
	shards   int
	snapshot bool // cold-start from a snapshot directory instead of -data
	mixed    bool // seeded op mix instead of pure kNN k=10
	requests int  // distinct request bodies, cycled through under load

	// seedQPS and seedP50Ms are this workload's closed-loop qps and
	// lat_p50_ms on the seed commit (rounded, from runs on a quiet host),
	// frozen here so the open-loop ladder offers the same rates and applies
	// the same latency limit on every later commit.
	seedQPS   float64
	seedP50Ms float64
	// seedOwnMs is the load generator's own CPU time per request on this
	// workload, frozen from the same runs: the reference the machine's
	// speed during a run is measured against (closedStats.speed).
	seedOwnMs float64
}

// workloads is the suite. Every workload emits the same metric names.
var workloads = []spec{
	{
		name: "thin_d4", n: 100000, d: 4, radiusMu: 0.2, shards: 2, requests: 2000,
		why:     "tiny answers at low d: traversal is a minority of the request, so server/shard/engine overhead shows",
		seedQPS: 2900, seedP50Ms: 0.57, seedOwnMs: 0.11,
	},
	{
		name: "scan_d10", n: 100000, d: 10, radiusMu: 1, shards: 2, requests: 2000,
		why:     "traversal reaches about half the leaves at d=10: knn/packed/vec dominate and a flat scan is competitive",
		seedQPS: 680, seedP50Ms: 2.5, seedOwnMs: 0.225,
	},
	{
		name: "fat_d10", n: 10000, d: 10, radiusMu: 10, shards: 2, requests: 1000,
		why:     "paper Table 2 default: ~800 results and ~200 KB per answer, so dominance filter, merge and encoder dominate",
		seedQPS: 200, seedP50Ms: 9.0, seedOwnMs: 0.465,
	},
	{
		name: "mixed_snap", n: 50000, d: 6, radiusMu: 2, shards: 4, snapshot: true, mixed: true, requests: 2000,
		why:     "same layers used differently: 4 shards on 2 cores from an mmap snapshot, mixed k/explain/dominates/rejects",
		seedQPS: 530, seedP50Ms: 2.2, seedOwnMs: 0.22,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload for smoke runs: corpus ÷ 20.
func (s spec) quick() spec {
	s.n /= 20
	return s
}

type opKind int

const (
	opKNN opKind = iota
	opKNNLargeK
	opExplain
	opDominates
	opReject
	numOps
)

func (k opKind) String() string {
	return [...]string{"knn", "knn_k100", "explain", "dominates", "reject"}[k]
}

// request is one generated HTTP operation plus what the harness needs to
// judge its response without asking the server.
type request struct {
	kind   opKind
	path   string
	body   []byte
	status int // expected HTTP status

	query geom.Sphere // kNN kinds
	k     int
	want  bool // opDominates: the in-process Hyperbola verdict
}

const (
	knnPath       = "/v1/collections/default/knn"
	dominatesPath = "/v1/collections/default/dominates"
)

// corpus generates the workload's dataset from the seed: Gaussian
// N(100, 25) centers and N(μ, μ/4) radii.
func (s spec) corpus(seed int64) []geom.Item {
	return dataset.Spheres(dataset.SyntheticCenters(s.n, s.d, dataset.Gaussian, seed),
		dataset.GaussianRadii(s.radiusMu), seed+1)
}

type sphereBody struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

func knnBody(q geom.Sphere, k int) []byte {
	b, err := json.Marshal(struct {
		sphereBody
		K int `json:"k"`
	}{sphereBody{q.Center, q.Radius}, k})
	if err != nil {
		panic(err) // finite floats always marshal
	}
	return b
}

func newRequest(kind opKind, items []geom.Item, q geom.Sphere, rng *rand.Rand) request {
	switch kind {
	case opKNN:
		return request{kind: kind, path: knnPath, body: knnBody(q, 10), status: http.StatusOK, query: q, k: 10}
	case opKNNLargeK:
		return request{kind: kind, path: knnPath, body: knnBody(q, 100), status: http.StatusOK, query: q, k: 100}
	case opExplain:
		return request{kind: kind, path: knnPath + "?explain=true", body: knnBody(q, 10), status: http.StatusOK, query: q, k: 10}
	case opDominates:
		a := items[rng.Intn(len(items))].Sphere
		b := items[rng.Intn(len(items))].Sphere
		body, err := json.Marshal(map[string]sphereBody{
			"a": {a.Center, a.Radius}, "b": {b.Center, b.Radius}, "q": {q.Center, q.Radius}})
		if err != nil {
			panic(err)
		}
		return request{kind: kind, path: dominatesPath, body: body, status: http.StatusOK,
			want: dominance.Hyperbola{}.Dominates(a, b, q)}
	case opReject:
		// Alternate the two validation failures: wrong dimensionality, k = 0.
		if rng.Intn(2) == 0 {
			wrong := geom.Sphere{Center: append(append([]float64(nil), q.Center...), 1), Radius: q.Radius}
			return request{kind: kind, path: knnPath, body: knnBody(wrong, 10), status: http.StatusBadRequest}
		}
		return request{kind: kind, path: knnPath, body: knnBody(q, 0), status: http.StatusBadRequest}
	}
	panic(fmt.Sprintf("bench: op kind %d", kind))
}

// mixedShares is the mixed_snap op mix, in opKind order.
var mixedShares = [numOps]float64{0.60, 0.15, 0.10, 0.10, 0.05}

// requestList generates the workload's operations from the seed. Queries
// are dataset members (Section 7.2). Pure workloads are all kNN k=10; the
// mixed workload draws each op from mixedShares.
func (s spec) requestList(items []geom.Item, seed int64) []request {
	queries := workload.KNNQueries(items, s.requests, seed+2)
	rng := rand.New(rand.NewSource(seed + 3))
	out := make([]request, len(queries))
	for i, q := range queries {
		kind := opKNN
		if s.mixed {
			u, acc := rng.Float64(), 0.0
			for k, share := range mixedShares {
				acc += share
				if u < acc {
					kind = opKind(k)
					break
				}
			}
		}
		out[i] = newRequest(kind, items, q, rng)
	}
	return out
}

// auxRequests returns n operations of one kind over the same corpus: the
// traced run times explain/dominates/reject handling on every workload so
// each emits the same metric names, whether or not its load mix has them.
func (s spec) auxRequests(items []geom.Item, kind opKind, n int, seed int64) []request {
	queries := workload.KNNQueries(items, n, seed+4+int64(kind))
	rng := rand.New(rand.NewSource(seed + 9 + int64(kind)))
	out := make([]request, n)
	for i, q := range queries {
		out[i] = newRequest(kind, items, q, rng)
	}
	return out
}
