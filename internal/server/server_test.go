package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"testing"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
	"hyperdom/internal/sstree"
)

func testCorpus(t testing.TB, d, n int) []geom.Item {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	items := make([]geom.Item, n)
	for i := range items {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		items[i] = geom.Item{Sphere: geom.NewSphere(c, rng.Float64()*2), ID: i}
	}
	return items
}

func testServer(t testing.TB, items []geom.Item, d int) (*Server, *httptest.Server) {
	t.Helper()
	x, err := shard.Build(items, d, shard.Options{Shards: 2, Algorithm: knn.HS, Label: "default"})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.AddCollection("default", x); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestKNNEndpointMatchesOracle(t *testing.T) {
	const d, n = 3, 400
	items := testCorpus(t, d, n)
	_, ts := testServer(t, items, d)

	tree := sstree.New(d)
	for _, it := range items {
		tree.Insert(it)
	}
	oracle := knn.WrapSSTree(tree)

	rng := rand.New(rand.NewSource(42))
	for q := 0; q < 10; q++ {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		k := 1 + rng.Intn(10)
		resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
			map[string]any{"center": c, "radius": 0.5, "k": k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var got knnResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := knn.Search(oracle, geom.NewSphere(c, 0.5), k, dominance.Hyperbola{}, knn.HS)
		if len(got.IDs) != len(want.Items) {
			t.Fatalf("query %d: %d ids, want %d", q, len(got.IDs), len(want.Items))
		}
		for i, it := range want.Items {
			if got.IDs[i] != it.ID {
				t.Fatalf("query %d: ids[%d] = %d, want %d", q, i, got.IDs[i], it.ID)
			}
		}
		if got.K != k || len(got.Items) != len(got.IDs) {
			t.Fatalf("query %d: malformed response %+v", q, got)
		}
	}
}

func TestDominatesEndpoint(t *testing.T) {
	const d = 2
	_, ts := testServer(t, testCorpus(t, d, 50), d)
	// A tight sphere near the query dominates a far one.
	body := map[string]any{
		"a": map[string]any{"center": []float64{0, 0}, "radius": 0.1},
		"b": map[string]any{"center": []float64{50, 50}, "radius": 0.1},
		"q": map[string]any{"center": []float64{0, 1}, "radius": 0.1},
	}
	resp := postJSON(t, ts.URL+"/v1/collections/default/dominates", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got dominatesResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !got.Dominates || got.Criterion != "Hyperbola" {
		t.Fatalf("got %+v", got)
	}
	// Unknown criterion is a 400.
	body["criterion"] = "Oracle"
	resp = postJSON(t, ts.URL+"/v1/collections/default/dominates", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown criterion: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestValidationAndRouting(t *testing.T) {
	const d = 2
	_, ts := testServer(t, testCorpus(t, d, 50), d)
	cases := []struct {
		path   string
		body   any
		status int
	}{
		{"/v1/collections/nope/knn", map[string]any{"center": []float64{0, 0}, "k": 1}, http.StatusNotFound},
		{"/v1/collections/default/knn", map[string]any{"center": []float64{0, 0}, "k": 0}, http.StatusBadRequest},
		{"/v1/collections/default/knn", map[string]any{"center": []float64{0}, "k": 1}, http.StatusBadRequest},
		{"/v1/collections/default/knn", map[string]any{"center": []float64{0, 0}, "radius": -1, "k": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/collections")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("collections: %v %v", err, resp)
	}
	var inv struct {
		Collections []collectionJSON `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(inv.Collections) != 1 || inv.Collections[0].Name != "default" || inv.Collections[0].Shards != 2 {
		t.Fatalf("inventory %+v", inv)
	}
}

// TestMetricsExposition pins the serving-path metric families the CI
// server-e2e job greps for — hyperdom_shard_* and
// hyperdom_server_request_latency — and that a served kNN request is one
// search sample: shard.search_latency, the layer that serves it, takes
// exactly one per request, while the library layers below count its work
// and time nothing. There is no knn search-latency or total-searches
// family, no forest search counted as a single-index one, and no counter
// that restates a histogram's count (shard queries, snapshot files opened).
func TestMetricsExposition(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	const d, n = 2, 7
	_, ts := testServer(t, testCorpus(t, d, 300), d)
	for i := 0; i < n; i++ {
		resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
			map[string]any{"center": []float64{90 + float64(i), 100}, "radius": 0.5, "k": 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf(`(?m)^hyperdom_shard_search_latency_seconds_count\{collection="default"\} %d$`, n),
		`(?m)^hyperdom_shard_visited [1-9]`,
		`(?m)^hyperdom_server_request_latency_seconds_bucket\{.*endpoint="knn"`,
		`(?m)^hyperdom_knn_nodes_visited [1-9]`,
		`(?m)^hyperdom_knn_searches_packed 0$`,
		`(?m)^hyperdom_knn_searches_sstree 0$`,
	} {
		if !regexp.MustCompile(want).MatchString(text) {
			t.Errorf("/metrics has no line matching %s", want)
		}
	}
	for _, gone := range []string{
		`(?m)^hyperdom_knn_search_latency`,
		`(?m)^hyperdom_knn_searches[ {]`,
		`(?m)^hyperdom_shard_queries`,
		`(?m)^hyperdom_snapshot_files_opened`,
	} {
		if line := regexp.MustCompile(gone + `.*$`).FindString(text); line != "" {
			t.Errorf("/metrics still has %s", line)
		}
	}
}

// TestServedSearchIsDepthFirst: a served kNN request walks each shard's
// packed snapshot depth-first, whatever Algorithm the index was built with
// (testServer asks for knn.HS): the depth-first child expansions move and
// no node is ever pushed onto a best-first frontier.
func TestServedSearchIsDepthFirst(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	const d, n = 3, 20
	_, ts := testServer(t, testCorpus(t, d, 2000), d)
	before := obs.Snapshot()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < n; i++ {
		c := make([]float64, d)
		for j := range c {
			c[j] = 100 + rng.NormFloat64()*25
		}
		resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
			map[string]any{"center": c, "radius": 0.5, "k": 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	moved := obs.Snapshot().Diff(before)
	if got := moved.Get("knn.heap_pushes"); got != 0 {
		t.Errorf("%d served searches pushed %d nodes onto a best-first frontier, want 0", n, got)
	}
	if got := moved.Get("knn.df_child_expansions"); got == 0 {
		t.Errorf("%d served searches expanded no child depth-first", n)
	}
}

func TestDuplicateCollectionRejected(t *testing.T) {
	const d = 2
	items := testCorpus(t, d, 30)
	x, err := shard.Build(items, d, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	defer s.Close()
	if err := s.AddCollection("c", x); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCollection("c", x); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := s.AddCollection("", x); err == nil {
		t.Fatal("empty name accepted")
	}
	if got := s.Collections(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("collections %v", got)
	}
}

// TestCollectionNameChecked: a collection name is a URL segment and the
// value of every collection="…" label, so one that fails shard.CheckName is
// refused at AddCollection — a quote in it would make every later /metrics
// scrape unparsable — and the mounted set stays as it was.
func TestCollectionNameChecked(t *testing.T) {
	const d = 2
	x, err := shard.Build(testCorpus(t, d, 30), d, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	defer s.Close()
	for _, name := range []string{`a"b`, "../../x", "a/b", "..", "."} {
		if err := s.AddCollection(name, x); err == nil {
			t.Errorf("AddCollection(%q) accepted", name)
		}
	}
	if got := s.Collections(); len(got) != 0 {
		t.Fatalf("collections %v after only bad names", got)
	}
	if err := s.AddCollection("ok-name_1.v2", x); err != nil {
		t.Fatal(err)
	}
}

// TestHostileK: k is client-chosen, and nothing below the handler may size
// anything by it. k = 2⁴⁰ answers 200 with the whole collection — what any
// k ≥ n answers — echoes the k that was asked, and allocates what the answer
// needs, not what k names (a heap sized by k would ask for 16 TiB here).
// The stats object carries the four Stats counters and nothing else.
func TestHostileK(t *testing.T) {
	const d, n = 2, 300
	_, ts := testServer(t, testCorpus(t, d, n), d)
	url := ts.URL + "/v1/collections/default/knn"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := postJSON(t, url, map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 1 << 40})
	runtime.ReadMemStats(&after)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k = 1<<40: status %d, want 200", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("k = 1<<40 allocated %d bytes for a %d-item collection", grew, n)
	}
	var got struct {
		K     int            `json:"k"`
		IDs   []int          `json:"ids"`
		Stats map[string]int `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.K != 1<<40 || len(got.IDs) != n {
		t.Fatalf("k = %d with %d ids, want k = %d with all %d", got.K, len(got.IDs), 1<<40, n)
	}
	for _, key := range []string{"NodesVisited", "Items", "DomChecks", "Pruned"} {
		if _, ok := got.Stats[key]; !ok {
			t.Fatalf("stats object lost key %q: %v", key, got.Stats)
		}
	}
	if len(got.Stats) != 4 {
		t.Fatalf("stats object has keys beyond the four counters: %v", got.Stats)
	}
}
