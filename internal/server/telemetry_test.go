package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
)

// syncBuffer is a goroutine-safe log sink for the access-log assertions
// (the httptest server handles requests on its own goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// loggedServer is testServer plus a captured slog JSON access log.
func loggedServer(t *testing.T, d, n int) (*Server, *httptest.Server, *syncBuffer) {
	t.Helper()
	items := testCorpus(t, d, n)
	x, err := shard.Build(items, d, shard.Options{Shards: 2, Label: "default"})
	if err != nil {
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	s := New(WithLogger(slog.New(slog.NewJSONHandler(logs, nil))))
	if err := s.AddCollection("default", x); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, logs
}

// lastLogLine decodes the most recent access-log record.
func lastLogLine(t *testing.T, logs *syncBuffer) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no access-log lines")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("bad log line %q: %v", lines[len(lines)-1], err)
	}
	return rec
}

// TestExplainAnswerUnchanged locks the tentpole byte-identity gate: the
// kNN answer fields are byte-identical with and without ?explain=true; the
// explain response only adds the per-shard tree.
func TestExplainAnswerUnchanged(t *testing.T) {
	const d = 3
	_, ts, _ := loggedServer(t, d, 500)
	body := map[string]any{"center": []float64{100, 100, 100}, "radius": 0.5, "k": 7}

	read := func(url string) map[string]json.RawMessage {
		resp := postJSON(t, url, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := read(ts.URL + "/v1/collections/default/knn")
	explained := read(ts.URL + "/v1/collections/default/knn?explain=true")

	if _, has := plain["explain"]; has {
		t.Fatal("explain-off response carries an explain field")
	}
	ex, has := explained["explain"]
	if !has {
		t.Fatal("explain-on response missing explain field")
	}
	// The answer must be byte-identical with explain on — stats included:
	// the same walk runs either way.
	for _, field := range []string{"k", "ids", "items", "stats"} {
		if !bytes.Equal(plain[field], explained[field]) {
			t.Fatalf("answer field %q differs under explain:\n off: %s\n on:  %s",
				field, plain[field], explained[field])
		}
	}

	var tree struct {
		Shards []obs.ShardSpan `json:"shards"`
		Merge  obs.MergeSpan   `json:"merge"`
	}
	if err := json.Unmarshal(ex, &tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Shards) != 2 {
		t.Fatalf("%d shard spans, want 2", len(tree.Shards))
	}
	sum := 0
	for i, sp := range tree.Shards {
		if sp.Skipped != (sp.LatencyNs == 0) || sp.QueueWaitNs != 0 {
			t.Fatalf("span %d: skipped %v, latency %d, queue wait %d", i, sp.Skipped, sp.LatencyNs, sp.QueueWaitNs)
		}
		sum += sp.Candidates
	}
	for _, key := range []string{`"order":`, `"skipped":`, `"queue_wait_ns":0`} {
		if !bytes.Contains(ex, []byte(key)) {
			t.Fatalf("explain payload lacks %s: %s", key, ex)
		}
	}
	if sum < 7 {
		t.Fatalf("per-shard candidates sum %d < k", sum)
	}
	if tree.Merge.Candidates != sum || tree.Merge.Results <= 0 {
		t.Fatalf("merge span %+v, shard candidate sum %d", tree.Merge, sum)
	}
}

// TestRequestIDHonoredAndGenerated pins the X-Request-ID contract: a sane
// client ID is echoed on the response and in the access log; an absent or
// garbage one is replaced with a generated ID.
func TestRequestIDHonoredAndGenerated(t *testing.T) {
	const d = 2
	_, ts, logs := loggedServer(t, d, 100)
	body, _ := json.Marshal(map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 3})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/collections/default/knn", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("echoed ID %q, want client-abc-123", got)
	}
	rec := lastLogLine(t, logs)
	if rec["request_id"] != "client-abc-123" || rec["endpoint"] != "knn" ||
		rec["collection"] != "default" || rec["status"] != float64(200) ||
		rec["shards"] != float64(2) {
		t.Fatalf("access log %+v", rec)
	}
	if v, ok := rec["shards_visited"].(float64); !ok || v < 1 || v > 2 {
		t.Fatalf("access log shards_visited %v, want 1 or 2", rec["shards_visited"])
	}
	if _, ok := rec["latency_ns"]; !ok {
		t.Fatalf("access log missing latency_ns: %+v", rec)
	}

	// No client ID → generated, non-empty, echoed.
	resp = postJSON(t, ts.URL+"/v1/collections/default/knn",
		map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 3})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-ID")
	if gen == "" || gen == "client-abc-123" {
		t.Fatalf("generated ID %q", gen)
	}
	if rec := lastLogLine(t, logs); rec["request_id"] != gen {
		t.Fatalf("log request_id %v, header %q", rec["request_id"], gen)
	}

	// Garbage (control bytes / oversized) client IDs are replaced.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/collections/default/knn", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", strings.Repeat("x", maxRequestIDLen+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) > maxRequestIDLen || got == "" {
		t.Fatalf("oversized client ID echoed back: %q", got)
	}
}

// TestReadyz pins the readiness contract: 503 until SetReady, 200 after,
// while /healthz stays 200 throughout (liveness is not readiness).
func TestReadyz(t *testing.T) {
	const d = 2
	s, ts, _ := loggedServer(t, d, 50)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before SetReady: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before SetReady: %d", got)
	}
	s.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after SetReady: %d", got)
	}
	if !s.Ready() {
		t.Fatal("Ready() false after SetReady(true)")
	}
	s.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after SetReady(false): %d", got)
	}
}

// TestServerErrorPaths covers the four required error paths — oversized
// body, malformed JSON, unknown collection, bad k — asserting the status
// code, the error-labeled requests_total increment, and a structured log
// line carrying a request_id.
func TestServerErrorPaths(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.ResetForTest()

	const d = 2
	_, ts, logs := loggedServer(t, d, 80)

	cases := []struct {
		name   string
		path   string
		body   []byte
		status int
	}{
		{"oversized body", "/v1/collections/default/knn",
			append([]byte(`{"center":[`), append(bytes.Repeat([]byte("1,"), maxBodyBytes/2), []byte(`1],"k":1}`)...)...),
			http.StatusRequestEntityTooLarge},
		{"malformed json", "/v1/collections/default/knn",
			[]byte(`{"center":[1,2`), http.StatusBadRequest},
		{"unknown collection", "/v1/collections/nope/knn",
			[]byte(`{"center":[1,2],"k":1}`), http.StatusNotFound},
		{"bad k", "/v1/collections/default/knn",
			[]byte(`{"center":[1,2],"k":0}`), http.StatusBadRequest},
	}
	wantCodes := map[string]bool{}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatalf("%s: no X-Request-ID on error response", c.name)
		}
		rec := lastLogLine(t, logs)
		if rec["request_id"] != id || rec["status"] != float64(c.status) {
			t.Fatalf("%s: log line %+v, want request_id %q status %d", c.name, rec, id, c.status)
		}
		if rec["level"] != "WARN" {
			t.Fatalf("%s: log level %v, want WARN", c.name, rec["level"])
		}
		wantCodes[`code="`+strconv.Itoa(c.status)+`",endpoint="knn"`] = true
	}

	// Every error code must have incremented its labeled counter.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	body := string(raw)
	for labels := range wantCodes {
		if !strings.Contains(body, "hyperdom_server_requests_total{"+labels+"}") {
			t.Fatalf("metrics missing requests_total{%s}\n%s", labels, body)
		}
	}
	if !strings.Contains(body, "hyperdom_server_bad_requests 4") {
		t.Fatalf("bad_requests counter not at 4\n%s", body)
	}
}

// TestUnknownCollectionsShareOneLabel pins that names a client invents do
// not reach the metrics registry: 10,000 requests to 10,000 collections that
// do not exist register no histogram beyond the one "_unknown" instance.
func TestUnknownCollectionsShareOneLabel(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.ResetForTest()
	s, _, _ := loggedServer(t, 2, 50)
	h := s.Handler()
	hit := func(name string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/collections/"+name+"/knn", strings.NewReader(`{"center":[1,2],"k":1}`)))
		if w.Code != http.StatusNotFound {
			t.Fatalf("collection %q: status %d", name, w.Code)
		}
	}
	hit("nope")
	before := len(obs.Histograms())
	for i := 0; i < 10000; i++ {
		hit("nope-" + strconv.Itoa(i))
	}
	if after := len(obs.Histograms()); after != before {
		t.Fatalf("%d histograms registered by requests to unknown collections", after-before)
	}
	found := false
	for _, hist := range obs.Histograms() {
		if hist.Name() == "server.request_latency" && strings.Contains(hist.Labels(), `collection="_unknown"`) {
			found = hist.Snap().Count == 10001
		}
	}
	if !found {
		t.Fatal(`no server.request_latency{collection="_unknown"} instance holding the 10,001 requests`)
	}
}

// TestDebugRequestsServed pins "one request, one record" end to end: a
// served kNN query leaves exactly one op in the Slow ring, visible in
// /debug/slow and /debug/requests under the request ID the response carried
// and the same when_unix_ns; sampled, its node spans appear in /debug/trace
// under the shards that visited them; and a library search on the same
// index leaves one op with no request.
func TestDebugRequestsServed(t *testing.T) {
	obs.SetEnabled(true)
	obs.SetTraceEvery(1)
	obs.ResetForTest()
	defer func() {
		obs.SetTraceEvery(0)
		obs.ResetForTest()
	}()
	const d = 2
	s, ts, _ := loggedServer(t, d, 200)

	resp := postJSON(t, ts.URL+"/v1/collections/default/knn",
		map[string]any{"center": []float64{100, 100}, "radius": 0.5, "k": 4})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")

	getJSON := func(path string, v any) {
		t.Helper()
		dresp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer dresp.Body.Close()
		if err := json.NewDecoder(dresp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var reqs []obs.RequestRecord
	getJSON("/debug/requests", &reqs)
	var slow []obs.SlowRecord
	getJSON("/debug/slow", &slow)
	if len(reqs) != 1 || len(slow) != 1 {
		t.Fatalf("one request left %d /debug/requests and %d /debug/slow entries, want 1 and 1", len(reqs), len(slow))
	}
	r, sl := reqs[0], slow[0]
	if r.RequestID != id || r.Collection != "default" || r.Endpoint != "knn" || r.Status != 200 ||
		r.K != 4 || len(r.Shards) != 2 || r.LatencyNs <= 0 ||
		r.ShardsVisited < 1 || r.ShardsVisited > 2 {
		t.Fatalf("request view %+v", r)
	}
	if sl.RequestID != id || sl.WhenUnixNs != r.WhenUnixNs || sl.When != r.When {
		t.Errorf("views do not join: slow (%q, %d) vs requests (%q, %d)", sl.RequestID, sl.WhenUnixNs, r.RequestID, r.WhenUnixNs)
	}
	if sl.Substrate != "sstree" || sl.K != 4 || sl.Nodes == 0 || sl.LatencyNs <= 0 || sl.LatencyNs > r.LatencyNs {
		t.Errorf("slow view %+v: want the search's own fields, its latency within the request's %d", sl, r.LatencyNs)
	}
	if sl.TraceID == 0 {
		t.Error("sampled request has no trace_id in /debug/slow")
	}
	for _, sp := range r.Shards {
		if want := map[bool]uint64{false: sl.TraceID}[sp.Skipped]; sp.TraceID != want {
			t.Errorf("shard %d (skipped %v) trace_id %d, want %d", sp.Shard, sp.Skipped, sp.TraceID, want)
		}
	}

	// The same op in /debug/trace: one process, the request root on thread
	// 0, and every node span on the thread of a shard the request visited.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	getJSON("/debug/trace", &doc)
	visited := map[int]bool{}
	for _, sp := range r.Shards {
		visited[sp.Shard+1] = !sp.Skipped
	}
	nodes := 0
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 1 {
			t.Fatalf("event %q in process %d: one op, one process", ev.Name, ev.Pid)
		}
		switch ev.Name {
		case "knn", "search", "merge":
			if ev.Tid != 0 {
				t.Errorf("%s span on thread %d, want 0", ev.Name, ev.Tid)
			}
		case "node", "leaf":
			nodes++
			if !visited[ev.Tid] {
				t.Errorf("%s span on thread %d, not a visited shard's (%v)", ev.Name, ev.Tid, visited)
			}
		}
	}
	if uint64(nodes) != sl.Nodes {
		t.Errorf("/debug/trace draws %d node spans, the op counted %d nodes", nodes, sl.Nodes)
	}

	// A library search nobody explains records itself, with no request.
	obs.Slow.Reset()
	s.lookup("default").x.Search(geom.Sphere{Center: []float64{100, 100}, Radius: 0.5}, 4)
	ops := obs.Slow.Dump()
	if len(ops) != 1 || ops[0].RequestID != "" || ops[0].RequestNs != 0 || len(ops[0].Shards) != 0 || ops[0].K != 4 {
		t.Fatalf("library search left %d ops (first %+v), want one without a request", len(ops), ops)
	}
	reqs = nil
	getJSON("/debug/requests", &reqs)
	if len(reqs) != 0 {
		t.Errorf("/debug/requests lists %d entries for a library search, want 0", len(reqs))
	}
}

// TestInflightSurvivesHandlerPanic closes a collection's Index under the
// server and asks it a kNN query: the handler panics (`shard: search on a
// closed Index`), and the middleware must make of that an ordinary failed
// request — 500 with a JSON error body and the request's ID, status="500" in
// the request meters, one ERROR access-log line carrying the ID and the
// panic, the inflight gauge back at rest — on a connection the client can go
// on using.
func TestInflightSurvivesHandlerPanic(t *testing.T) {
	obs.ResetForTest()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	defer obs.ResetForTest()
	s, ts, logs := loggedServer(t, 2, 80)
	s.lookup("default").x.Close()

	var reused bool
	trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
	before := inflight.Load()
	for i := 0; i < 2; i++ { // the second request rides the first one's connection
		req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			"POST", ts.URL+"/v1/collections/default/knn", strings.NewReader(`{"center":[1,2],"k":1}`))
		req.Header.Set("X-Request-ID", "panic-"+strconv.Itoa(i))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(body["error"], "closed Index") {
			t.Fatalf("request %d: status %d, body %v (%v), want 500 and the panic as a JSON error", i, resp.StatusCode, body, err)
		}
		rec := lastLogLine(t, logs)
		if rec["request_id"] != "panic-"+strconv.Itoa(i) || rec["status"] != float64(500) || rec["level"] != "ERROR" ||
			!strings.Contains(fmt.Sprint(rec["panic"]), "closed Index") {
			t.Fatalf("request %d: log line %+v, want ERROR, status 500, this request's ID and the panic", i, rec)
		}
	}
	if n := strings.Count(logs.String(), "\n"); n != 2 {
		t.Errorf("%d access-log lines for 2 requests", n)
	}
	if !reused {
		t.Error("the second request needed a new connection: a panicking handler cost the client its connection")
	}
	if got := inflight.Load(); got != before {
		t.Errorf("inflight = %d after a panicking handler, want %d", got, before)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if want := `hyperdom_server_requests_total{code="500",endpoint="knn"} 2`; !strings.Contains(string(raw), want) {
		t.Errorf("metrics missing %s", want)
	}
}
