package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

// The encoding/json structs the assembled response replaced. They live on
// here as the reference appendKNNResponse is held to byte for byte, and as
// the decoding side of the endpoint tests.

type itemJSON struct {
	ID     int       `json:"id"`
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

type knnResponse struct {
	K       int         `json:"k"`
	IDs     []int       `json:"ids"`
	Items   []itemJSON  `json:"items"`
	Stats   statsJSON   `json:"stats"`
	Explain *obs.Forest `json:"explain,omitempty"`
}

type statsJSON struct {
	knn.Stats
	Resurrected int
}

// referenceEncode is the response path as it was: fill the structs, hand
// them to json.Encoder.
func referenceEncode(k int, res knn.Result, explain *obs.Forest) ([]byte, error) {
	resp := knnResponse{K: k, IDs: make([]int, 0, len(res.Items)), Stats: statsJSON{Stats: res.Stats}, Explain: explain}
	for _, it := range res.Items {
		resp.IDs = append(resp.IDs, it.ID)
		resp.Items = append(resp.Items, itemJSON{ID: it.ID, Center: it.Sphere.Center, Radius: it.Sphere.Radius})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

func testExplain() *obs.Forest {
	return &obs.Forest{
		Shards: []obs.ShardSpan{
			{Shard: 0, Items: 12, LatencyNs: 1234, QueueWaitNs: 5, Candidates: 7, NodesVisited: 3, ItemsScanned: 12,
				CoarsePrunes: 2, BoundObserved: obs.BoundValue(math.Inf(1)), BoundPublished: 1.5e21},
			{Shard: 1, Items: 0, BoundObserved: 0.25, BoundPublished: obs.BoundValue(math.NaN()), TraceID: 9},
		},
		Merge: obs.MergeSpan{LatencyNs: 99, Candidates: 7, Pruned: 4, Results: 3},
	}
}

// checkEncode holds appendKNNResponse to referenceEncode for one answer,
// with no cache, through a cold cache and through the same cache warm,
// appending to a buffer that already holds bytes.
func checkEncode(t *testing.T, k int, res knn.Result, explain *obs.Forest) {
	t.Helper()
	want, wantErr := referenceEncode(k, res, explain)
	dim := 1
	if len(res.Items) > 0 {
		dim = len(res.Items[0].Sphere.Center)
	}
	cache := newFragCache(len(res.Items), dim)
	for _, run := range []struct {
		name  string
		frags *fragCache
	}{{"uncached", nil}, {"cold", cache}, {"warm", cache}} {
		got, err := appendKNNResponse([]byte("prefix"), k, res, run.frags, explain)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, encoding/json says %v", run.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got = got[len("prefix"):]; !bytes.Equal(got, want) {
			t.Fatalf("%s: assembled response differs from encoding/json\n got %s\nwant %s", run.name, got, want)
		}
	}
}

func TestKNNResponseEncodeIdentity(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1 << 53, -(1 << 53), 0.1, 100.25,
		1e-6, -1e-6, 1e-7, -1e-7, 9.999999e-7, 1.0000001e-6,
		1e20, 1e21, 1e22, -1e21, 9.999999999999999e20, 123456789012345678901,
		1e150, 1e-150, -1e150, 1.7976931348623157e308, 2.2250738585072014e-308,
		5e-324, -5e-324, 1.5e-310, 1e-9, 1e-10, 1e100, 3.0e-5, 12345.678e-12,
	}
	// Every float once as a coordinate (d = 1) and once as a radius.
	var items []knn.Item
	for i, f := range floats {
		items = append(items, knn.Item{ID: i - 5, Sphere: geom.Sphere{Center: []float64{f}, Radius: floats[len(floats)-1-i]}})
	}
	stats := knn.Stats{NodesVisited: 17, Items: 4000, DomChecks: 91, Pruned: 3966}
	for _, explain := range []*obs.Forest{nil, testExplain()} {
		checkEncode(t, 10, knn.Result{Items: items, K: 10, Stats: stats}, explain)
		checkEncode(t, 1<<40, knn.Result{Items: items[:1], Stats: stats}, explain)
		checkEncode(t, 3, knn.Result{}, explain)                    // "ids":[] but "items":null
		checkEncode(t, 3, knn.Result{Items: []knn.Item{}}, explain) // the same for a non-nil empty answer
		checkEncode(t, math.MinInt64, knn.Result{Stats: knn.Stats{Items: -1}}, explain)
	}
	// d = 7 with every float in some position, IDs at the int extremes.
	wide := []knn.Item{
		{ID: math.MaxInt64, Sphere: geom.Sphere{Center: floats[0:7], Radius: 2}},
		{ID: math.MinInt64, Sphere: geom.Sphere{Center: floats[7:14], Radius: 0}},
		{ID: 0, Sphere: geom.Sphere{Center: floats[14:21], Radius: 1e-7}},
		{ID: 0, Sphere: geom.Sphere{Center: floats[21:28], Radius: 1e21}},
	}
	checkEncode(t, 2, knn.Result{Items: wide, Stats: stats}, nil)
	// A non-finite stored value fails both encoders, wherever it sits.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncode(t, 1, knn.Result{Items: []knn.Item{{ID: 1, Sphere: geom.Sphere{Center: []float64{1, bad}, Radius: 1}}}}, nil)
		checkEncode(t, 1, knn.Result{Items: []knn.Item{{ID: 1, Sphere: geom.Sphere{Center: []float64{1, 2}, Radius: bad}}}}, nil)
	}
}

// FuzzKNNResponseEncode reads the input as float64 bit patterns, groups
// them into d-dimensional items and holds the assembled response to
// encoding/json's, byte for byte, uncached, cold and warm.
func FuzzKNNResponseEncode(f *testing.F) {
	seed := func(d uint8, k int64, explain bool, floats ...float64) {
		b := make([]byte, 0, 8*len(floats))
		for _, x := range floats {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b, d, k, explain)
	}
	seed(1, 10, false, 5e-324, 1, -5e-324, 2.2250738585072014e-308, 1e-310, 0)
	seed(1, 1, true, 1e-6, -1e-6, 1e-7, -1e-7, 9.999999e-7, 1)
	seed(2, 3, false, 1e20, 1e21, 1e22, -1e21, 9.999999999999999e20, 1e21)
	seed(1, 0, false, math.Copysign(0, -1), 0, 3, 4, -17, 1<<53)
	seed(3, 7, true, 1e150, 1e-150, -1e150, 1e-150, 1.7976931348623157e308, 1, 2, 3)
	seed(1, 5, false)
	seed(4, -1, false, 1, 2, 3, 4, math.NaN(), 1, 2, 3, 4, math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, d uint8, k int64, explain bool) {
		dim := 1 + int(d%8)
		var floats []float64
		for ; len(data) >= 8; data = data[8:] {
			floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		var items []knn.Item
		for ; len(floats) > dim; floats = floats[dim+1:] {
			// The ID is cut from the radius's bits: negative, huge and
			// repeated IDs all turn up.
			id := int(int64(math.Float64bits(floats[dim])) >> 40)
			items = append(items, knn.Item{ID: id, Sphere: geom.Sphere{Center: floats[:dim:dim], Radius: floats[dim]}})
		}
		var ex *obs.Forest
		if explain {
			ex = testExplain()
		}
		stats := knn.Stats{NodesVisited: len(items), Items: int(k), DomChecks: dim, Pruned: -dim}
		checkEncode(t, int(k), knn.Result{Items: items, Stats: stats}, ex)
	})
}
