package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hyperdom/internal/dataset"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/shard"
)

// buildIndex builds a 2-shard index. Stats are a function of the query, so
// a whole response — stats included — can be compared byte for byte.
func buildIndex(t testing.TB, items []geom.Item, d int) *shard.Index {
	t.Helper()
	x, err := shard.Build(items, d, shard.Options{Shards: 2, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func mount(t testing.TB, name string, x *shard.Index) *Server {
	t.Helper()
	s := New()
	if err := s.AddCollection(name, x); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// serveKNN posts one kNN query straight into the handler and returns the
// recorded status and body.
func serveKNN(h http.Handler, collection string, q geom.Sphere, k int) (int, []byte) {
	body, err := json.Marshal(map[string]any{"center": q.Center, "radius": q.Radius, "k": k})
	if err != nil {
		panic(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/collections/"+collection+"/knn", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// wantKNN is the response the marshalled structs would have given.
func wantKNN(t testing.TB, x *shard.Index, q geom.Sphere, k int) []byte {
	t.Helper()
	res, _ := x.SearchExplain(q, min(k, x.Len()))
	want, err := referenceEncode(k, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func (c *fragCache) filled() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// checkColdWarm asks every query twice — the first pass fills the cache,
// the second is served from it — and holds both to the reference.
func checkColdWarm(t *testing.T, s *Server, x *shard.Index, queries []geom.Sphere, k int) {
	t.Helper()
	h := s.Handler()
	for pass, name := range []string{"cold", "warm"} {
		for i, q := range queries {
			status, got := serveKNN(h, "default", q, k)
			if want := wantKNN(t, x, q, k); status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%s pass %d, query %d: status %d, body differs from encoding/json\n got %.300s\nwant %.300s",
					name, pass, i, status, got, want)
			}
		}
	}
}

func queriesOf(items []geom.Item, n int) []geom.Sphere {
	out := make([]geom.Sphere, n)
	for i := range out {
		out[i] = items[i*len(items)/n].Sphere
	}
	return out
}

func TestFragmentCacheColdWarmIdentical(t *testing.T) {
	const d, n = 3, 600
	items := testCorpus(t, d, n)
	x := buildIndex(t, items, d)
	s := mount(t, "default", x)
	cache := s.collections["default"].frags
	if cache == nil || len(cache.slots) != 1024 {
		t.Fatalf("a %d-item collection should get a 1024-slot cache, got %+v", n, cache)
	}
	checkColdWarm(t, s, x, queriesOf(items, 12), 25)
	if cache.filled() == 0 {
		t.Fatal("no fragment was cached")
	}
	// k ≥ n answers with the whole collection: every item is now cached.
	checkColdWarm(t, s, x, queriesOf(items, 2), n)
	if got := cache.filled(); got != n {
		t.Fatalf("%d fragments cached after whole-collection answers, want %d", got, n)
	}
}

// TestFragmentCacheSharedIDs: items that share an ID (and items whose IDs
// share a slot) must each be served with their own coordinates.
func TestFragmentCacheSharedIDs(t *testing.T) {
	const d = 2
	var items []geom.Item
	for i := 0; i < 40; i++ {
		c := []float64{float64(i), float64(i) / 8}
		// IDs 0..9 four times over, plus i+64 ≡ i (mod 64) collisions.
		items = append(items, geom.Item{ID: i % 10, Sphere: geom.NewSphere(c, 0.25)})
		items = append(items, geom.Item{ID: i + 64, Sphere: geom.NewSphere([]float64{-c[0], c[1]}, 0.5)})
	}
	x := buildIndex(t, items, d)
	s := mount(t, "default", x)
	checkColdWarm(t, s, x, queriesOf(items, 8), len(items))

	_, body := serveKNN(s.Handler(), "default", items[0].Sphere, len(items))
	var got knnResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, it := range got.Items {
		seen[fmt.Sprint(it.ID, it.Center, it.Radius)] = true
	}
	for _, it := range items {
		if !seen[fmt.Sprint(it.ID, it.Sphere.Center, it.Sphere.Radius)] {
			t.Fatalf("item %d %v missing from the whole-collection answer (another item's bytes served?)", it.ID, it.Sphere.Center)
		}
	}
}

func TestFragmentCacheConcurrent(t *testing.T) {
	const d, n, workers, rounds = 4, 500, 8, 6
	items := testCorpus(t, d, n)
	x := buildIndex(t, items, d)
	s := mount(t, "default", x)
	h := s.Handler()
	queries := queriesOf(items, 16)
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = wantKNN(t, x, q, 200)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range queries {
					j := (i + w) % len(queries) // every goroutine starts cold on a different query
					if status, got := serveKNN(h, "default", queries[j], 200); status != http.StatusOK || !bytes.Equal(got, want[j]) {
						t.Errorf("goroutine %d round %d query %d: status %d, body differs", w, r, j, status)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFragmentCacheDiesWithCollection: Close drops the cache with the
// collection, so the same name re-added over different data starts cold.
func TestFragmentCacheDiesWithCollection(t *testing.T) {
	const d, n = 2, 200
	first := testCorpus(t, d, n)
	s := mount(t, "default", buildIndex(t, first, d))
	if status, _ := serveKNN(s.Handler(), "default", first[0].Sphere, n); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	old := s.collections["default"].frags
	if old.filled() != n {
		t.Fatalf("%d fragments cached, want %d", old.filled(), n)
	}
	s.Close()

	// Same IDs, every coordinate different.
	second := make([]geom.Item, n)
	for i, it := range first {
		second[i] = geom.Item{ID: it.ID, Sphere: geom.NewSphere([]float64{it.Sphere.Center[1] + 1, it.Sphere.Center[0] - 1}, it.Sphere.Radius/2)}
	}
	x := buildIndex(t, second, d)
	if err := s.AddCollection("default", x); err != nil {
		t.Fatal(err)
	}
	if fresh := s.collections["default"].frags; fresh == old || fresh.filled() != 0 {
		t.Fatalf("re-added collection did not start with an empty cache of its own")
	}
	checkColdWarm(t, s, x, queriesOf(second, 4), n)
}

func TestFragmentCacheBudget(t *testing.T) {
	for _, c := range []struct {
		n, dim int
		slots  int // 0: no cache
	}{
		{0, 4, 0},
		{1, 1, 1},
		{10000, 10, 16384}, // the paper's default corpus: 2.5 MB of text
		{16644, 10, 32768}, // the last d = 10 size under 4 MiB
		{16645, 10, 0},     // the first over
		{50000, 6, 0},
		{100000, 4, 0},
		{1200, 200, 0},
	} {
		cache := newFragCache(c.n, c.dim)
		got := 0
		if cache != nil {
			got = len(cache.slots)
		}
		if got != c.slots {
			t.Errorf("n = %d, d = %d: %d slots, want %d", c.n, c.dim, got, c.slots)
		}
	}
	// Over the budget, the collection is served uncached and identically.
	const d, n = 200, 1200
	items := dataset.Spheres(dataset.SyntheticCenters(n, d, dataset.Gaussian, 5), dataset.GaussianRadii(1), 6)
	x := buildIndex(t, items, d)
	s := mount(t, "default", x)
	if s.collections["default"].frags != nil {
		t.Fatalf("a %d × %d collection is over the budget and must not get a cache", n, d)
	}
	checkColdWarm(t, s, x, queriesOf(items, 2), 5)
}

// TestFragmentCacheOverMmap: a collection opened from a snapshot directory
// is cached like any other, and what the cache keeps is its own copy of the
// text plus an address it only compares — reading every fragment after
// Close has unmapped the snapshot must not touch the mapping.
func TestFragmentCacheOverMmap(t *testing.T) {
	const d, n = 3, 400
	items := testCorpus(t, d, n)
	built := buildIndex(t, items, d)
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	built.Close()
	x, err := shard.OpenDir(dir, shard.OpenOptions{Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	s := mount(t, "default", x)
	checkColdWarm(t, s, x, queriesOf(items, 6), n)
	_, served := serveKNN(s.Handler(), "default", items[0].Sphere, n)

	cache := s.collections["default"].frags
	if cache.filled() != n {
		t.Fatalf("%d fragments cached, want %d", cache.filled(), n)
	}
	s.Close() // stops the pools, unmaps the snapshot files
	if status, _ := serveKNN(s.Handler(), "default", items[0].Sphere, n); status != http.StatusNotFound {
		t.Fatalf("closed collection answered %d, want 404", status)
	}
	for i := range cache.slots {
		if f := cache.slots[i].Load(); f != nil && !bytes.Contains(served, []byte(f.text)) {
			t.Fatalf("fragment of item %d is not the text that was served: %s", f.id, f.text)
		}
	}
}

// TestNonFiniteStoredItem: a stored ±Inf/NaN (here a bit-flipped snapshot
// opened without verification) used to answer 200 with an empty body; it
// must answer 500 with the error document, log the request ID, and leave
// nothing in the cache for that item.
func TestNonFiniteStoredItem(t *testing.T) {
	const d, n = 2, 60
	items := testCorpus(t, d, n)
	const marker = 0.123456789
	items[17].Sphere.Radius = marker
	built := buildIndex(t, items, d)
	dir := t.TempDir()
	if err := built.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	built.Close()
	pattern := binary.LittleEndian.AppendUint64(nil, math.Float64bits(marker))
	flipped := 0
	files, _ := filepath.Glob(filepath.Join(dir, "*.hds"))
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(raw, pattern); i >= 0 {
			binary.LittleEndian.PutUint64(raw[i:], math.Float64bits(math.Inf(1)))
			flipped++
			if err := os.WriteFile(name, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if flipped != 1 {
		t.Fatalf("marker radius found in %d shard files, want 1", flipped)
	}
	x, err := shard.OpenDir(dir, shard.OpenOptions{Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	s := New(WithLogger(slog.New(slog.NewJSONHandler(logs, nil))))
	if err := s.AddCollection("default", x); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	for attempt := 0; attempt < 2; attempt++ { // the second finds the other items cached
		body, _ := json.Marshal(map[string]any{"center": items[17].Sphere.Center, "radius": 0.5, "k": n})
		req := httptest.NewRequest("POST", "/v1/collections/default/knn", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", fmt.Sprintf("corrupt-%d", attempt))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		var doc map[string]string
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &doc) != nil ||
			!strings.Contains(doc["error"], "item 17") {
			t.Fatalf("attempt %d: status %d body %q, want 500 with an error naming item 17", attempt, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		if line := lastLogLine(t, logs); line["request_id"] != fmt.Sprintf("corrupt-%d", attempt) ||
			line["status"] != float64(500) || line["level"] != "ERROR" {
			t.Fatalf("access log %+v", line)
		}
	}
	cache := s.collections["default"].frags
	for i := range cache.slots {
		if f := cache.slots[i].Load(); f != nil && f.id == 17 {
			t.Fatalf("the non-finite item was cached: %s", f.text)
		}
	}
}

// TestKNNHandlerAllocs gates what a warm kNN request allocates in the
// server layer. A Definition 2 answer at the paper's defaults is ~800
// items; the marshalled path spent 70.8 allocations and 328 KB per request
// on it, 211 KB of that below the handler (the shards' candidate streams,
// gone since, and the answer slice, which shard.SearchExplain still
// allocates). The response is assembled in a pooled buffer from cached
// fragments and the request's meters are resolved once per collection, so
// what the handler adds to the search must be small and must not grow with
// the answer.
func TestKNNHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	const d, n = 10, 10000
	items := dataset.Spheres(dataset.SyntheticCenters(n, d, dataset.Gaussian, 1), dataset.GaussianRadii(10), 2)
	x, err := shard.Build(items, d, shard.Options{Shards: 2, Algorithm: knn.HS})
	if err != nil {
		t.Fatal(err)
	}
	s := mount(t, "default", x)
	h := s.Handler()
	queries := queriesOf(items, 8)
	const rounds = 32

	// perRequest is what run allocates per call, as the cheapest of a few
	// replays of rounds calls (a GC cycle during one of them empties the
	// pools, and the refill is not the gate's subject); prepare runs before
	// each replay, unmeasured.
	perRequest := func(prepare func(), run func(i int)) (allocs, bytesPer float64) {
		allocs, bytesPer = math.Inf(1), math.Inf(1)
		for replay := 0; replay < 3; replay++ {
			prepare()
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for i := 0; i < rounds; i++ {
				run(i)
			}
			runtime.ReadMemStats(&b)
			allocs = min(allocs, float64(b.Mallocs-a.Mallocs)/rounds)
			bytesPer = min(bytesPer, float64(b.TotalAlloc-a.TotalAlloc)/rounds)
		}
		return allocs, bytesPer
	}
	// measure returns the mean answer size at k and what the handler
	// allocates per request: objects in all, bytes net of the search.
	measure := func(k int) (results int, allocs, ownBytes float64) {
		bodies := make([][]byte, len(queries))
		for i, q := range queries {
			bodies[i], _ = json.Marshal(map[string]any{"center": q.Center, "radius": q.Radius, "k": k})
			results += len(x.Search(q, k).Items) / len(queries)
		}
		w := &nullWriter{h: http.Header{}}
		reqs := make([]*http.Request, rounds)
		fill := func() {
			for i := range reqs {
				reqs[i] = httptest.NewRequest("POST", "/v1/collections/default/knn", bytes.NewReader(bodies[i%len(bodies)]))
			}
		}
		fill()
		for _, r := range reqs { // warm: fragments cached, buffers pooled, scratch grown
			h.ServeHTTP(w, r)
		}
		allocs, handlerBytes := perRequest(fill, func(i int) { h.ServeHTTP(w, reqs[i]) })
		_, searchBytes := perRequest(func() {}, func(i int) { x.SearchExplain(queries[i%len(queries)], k) })
		return results, allocs, handlerBytes - searchBytes
	}

	smallN, _, smallOwn := measure(1)
	bigN, bigAllocs, bigOwn := measure(10)
	t.Logf("%d results: %.0f B of the handler's own per request; %d results: %.1f allocations in all, %.0f B of the handler's own",
		smallN, smallOwn, bigN, bigAllocs, bigOwn)
	if bigN < 500 {
		t.Fatalf("fixture drifted: %d results per answer, want the paper's several hundred", bigN)
	}
	if bigAllocs > 28 {
		t.Errorf("a warm %d-result request costs %.1f allocations, budget 28 (measured 25; the marshalled path: 70.8)", bigN, bigAllocs)
	}
	if bigOwn > 16<<10 {
		t.Errorf("a warm %d-result request costs %.0f B above its search, budget %d B (the marshalled path: 117 KB)", bigN, bigOwn, 16<<10)
	}
	if grown := bigOwn - smallOwn; grown > 4<<10 {
		t.Errorf("the handler's own bytes per request grew by %.0f B from %d to %d results; the response must not be paid for per item", grown, smallN, bigN)
	}
}

type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

func TestSphereValidatedAtBoundary(t *testing.T) {
	for _, sj := range []sphereJSON{
		{Center: nil, Radius: 1},
		{Center: []float64{1, 2}, Radius: -1},
		{Center: []float64{1, 2}, Radius: math.NaN()},
		{Center: []float64{1, 2}, Radius: math.Inf(1)},
		{Center: []float64{1, math.NaN()}, Radius: 1},
		{Center: []float64{math.Inf(-1), 2}, Radius: 1},
	} {
		if _, err := sj.sphere(); err == nil {
			t.Errorf("%+v accepted", sj)
		}
	}
	if sp, err := (sphereJSON{Center: []float64{1, 2}, Radius: 0}).sphere(); err != nil || sp.Radius != 0 || len(sp.Center) != 2 {
		t.Errorf("a point sphere was refused: %v", err)
	}
}

func TestGeneratedRequestIDFormat(t *testing.T) {
	s := New()
	if len(s.idPrefix) != 9 || s.idPrefix[8] != '-' {
		t.Fatalf("prefix %q, want 8 hex digits and a dash", s.idPrefix)
	}
	r := httptest.NewRequest("GET", "/v1/collections", nil)
	for _, seq := range []uint64{0, 8, 99998, 99999, 999998, 999999, 1 << 40, math.MaxUint64 - 1} {
		s.reqSeq.Store(seq)
		if got, want := s.requestID(r), s.idPrefix+fmt.Sprintf("%06d", seq+1); got != want {
			t.Errorf("sequence %d: generated ID %q, want %q", seq+1, got, want)
		}
	}
}
