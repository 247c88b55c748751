package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestBoundValueMarshal(t *testing.T) {
	b, err := json.Marshal(map[string]BoundValue{
		"inf":  BoundValue(math.Inf(1)),
		"ninf": BoundValue(math.Inf(-1)),
		"nan":  BoundValue(math.NaN()),
		"v":    BoundValue(2.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"inf":null`, `"ninf":null`, `"nan":null`, `"v":2.5`} {
		if !strings.Contains(s, want) {
			t.Fatalf("marshal %s missing %s", s, want)
		}
	}
}

// TestFlightAdmitAndReplace fills a fresh ring past capacity and checks the
// replace-minimum policy: the retained set is exactly the SlowSlots slowest
// ops, dumped in descending latency order with every field intact.
func TestFlightAdmitAndReplace(t *testing.T) {
	var r SlowRing
	// 2×SlowSlots ops with distinct latencies 1..128, offered in an
	// interleaved order so slow ones arrive both before and after fast ones.
	n := 2 * SlowSlots
	for i := 0; i < n; i++ {
		lat := int64(((i * 37) % n) + 1)
		r.Record(&Op{
			WhenUnixNs: lat, LatencyNs: lat,
			Substrate: "test-substrate", Algo: "test-algo", K: int(lat),
			Nodes: uint64(lat), Items: uint64(2 * lat),
			DomChecks: uint64(3 * lat), Pruned: uint64(4 * lat),
			HeapPushes: uint64(5 * lat),
		})
	}
	dump := r.Dump()
	if len(dump) != SlowSlots {
		t.Fatalf("ring holds %d ops, want %d", len(dump), SlowSlots)
	}
	for i, o := range dump {
		want := int64(n - i) // slowest SlowSlots are n, n-1, ..., n-SlowSlots+1
		if o.LatencyNs != want {
			t.Errorf("dump[%d].LatencyNs = %d, want %d", i, o.LatencyNs, want)
		}
		if o.Substrate != "test-substrate" || o.Algo != "test-algo" {
			t.Errorf("dump[%d] labels = (%q, %q)", i, o.Substrate, o.Algo)
		}
		lat := uint64(o.LatencyNs)
		if o.K != int(lat) || o.Nodes != lat || o.Items != 2*lat ||
			o.DomChecks != 3*lat || o.Pruned != 4*lat || o.HeapPushes != 5*lat {
			t.Errorf("dump[%d] counts do not match the op offered: %+v", i, o)
		}
	}
	// An op no slower than the retained minimum must be rejected on the
	// fast path and must not disturb the ring.
	r.Record(&Op{LatencyNs: int64(n - SlowSlots)})
	if again := r.Dump(); len(again) != SlowSlots || again[SlowSlots-1].LatencyNs != int64(n-SlowSlots+1) {
		t.Error("rejected op disturbed the ring")
	}
	if got := r.floor.Load(); got != int64(n-SlowSlots+1) {
		t.Errorf("admission floor = %d, want the fastest retained latency %d", got, n-SlowSlots+1)
	}
}

// TestRingAdmissionAndDump ranks served ops by their request latency, not
// the search's: ascending fill past capacity keeps the SlowSlots slowest
// requests, a too-fast one is rejected once full, and Reset empties the
// ring and reopens admission.
func TestRingAdmissionAndDump(t *testing.T) {
	var r SlowRing
	for i := 0; i < SlowSlots+16; i++ {
		r.Record(&Op{RequestID: "r", LatencyNs: 1, RequestNs: int64(i + 1)})
	}
	dump := r.Dump()
	if len(dump) != SlowSlots {
		t.Fatalf("dump %d, want %d", len(dump), SlowSlots)
	}
	for i := 1; i < len(dump); i++ {
		if dump[i].RequestNs > dump[i-1].RequestNs {
			t.Fatalf("dump not sorted desc at %d: %d > %d", i, dump[i].RequestNs, dump[i-1].RequestNs)
		}
	}
	// The fastest retained must be the (16+1)-th slowest overall.
	if got, want := dump[len(dump)-1].RequestNs, int64(17); got != want {
		t.Fatalf("fastest retained %d, want %d", got, want)
	}
	r.Record(&Op{RequestID: "fast", LatencyNs: 1, RequestNs: 2})
	for _, o := range r.Dump() {
		if o.RequestID == "fast" {
			t.Fatal("too-fast request admitted into a full ring")
		}
	}
	r.Reset()
	if got := r.Dump(); len(got) != 0 {
		t.Fatalf("dump after reset: %d", len(got))
	}
}

// TestFlightReset empties the ring and reopens admission.
func TestFlightReset(t *testing.T) {
	var r SlowRing
	r.Record(&Op{LatencyNs: 100})
	r.Reset()
	if dump := r.Dump(); len(dump) != 0 {
		t.Fatalf("ring holds %d ops after Reset, want 0", len(dump))
	}
	r.Record(&Op{LatencyNs: 5})
	if dump := r.Dump(); len(dump) != 1 || dump[0].LatencyNs != 5 {
		t.Error("ring does not admit after Reset")
	}
}

// TestFlightRecordAllocs pins the cost of the record path: an op that is
// not admitted allocates nothing (the caller's Op stays on its stack), an
// admitted one exactly its heap copy.
func TestFlightRecordAllocs(t *testing.T) {
	var r SlowRing
	for i := 0; i < SlowSlots; i++ {
		r.Record(&Op{LatencyNs: 1000 + int64(i)})
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Record(&Op{LatencyNs: 1, Substrate: "sstree", RequestID: "x"})
	}); allocs != 0 {
		t.Errorf("non-admitted Record allocates %.1f times per call, want 0", allocs)
	}
	var admitLat int64 = 10000
	if allocs := testing.AllocsPerRun(100, func() {
		admitLat++
		r.Record(&Op{LatencyNs: admitLat})
	}); allocs != 1 {
		t.Errorf("admitted Record allocates %.1f times per call, want 1", allocs)
	}
}

// TestFlightConcurrent races recorders against dumpers. The ring is
// deliberately lossy, so the hard guarantees are: every dumped latency is
// one that was actually offered, the ring is full at the end, and the
// slowest op overall survives.
func TestFlightConcurrent(t *testing.T) {
	var r SlowRing
	const workers, per = 8, 2000
	offered := func(lat int64) bool { return lat >= 1 && lat <= workers*per }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				for _, o := range r.Dump() {
					if !offered(o.LatencyNs) {
						t.Errorf("dump returned latency %d that was never offered", o.LatencyNs)
						return
					}
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(&Op{LatencyNs: int64(w*per + i + 1), K: w})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done
	dump := r.Dump()
	if len(dump) != SlowSlots {
		t.Fatalf("ring holds %d ops after concurrent filling, want %d", len(dump), SlowSlots)
	}
	// The slowest op overall can never be displaced, racy or not.
	if dump[0].LatencyNs != workers*per {
		t.Errorf("slowest retained latency = %d, want %d", dump[0].LatencyNs, workers*per)
	}
}

// TestRingNeverTears is the consistency contract of pointer slots: with
// several writers admitting into the same slots as fast as they can, every
// op a reader sees is one some writer offered, whole. Each op carries the
// same value in all of its scalar fields; a record assembled from two
// writers' stores would not.
func TestRingNeverTears(t *testing.T) {
	dur := 3 * time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	var r SlowRing
	var seq atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Ever-growing latencies: every offer is admitted, and the
				// writers keep colliding on the currently fastest slot.
				v := seq.Add(1)
				u := uint64(v)
				r.Record(&Op{
					WhenUnixNs: v, LatencyNs: v, K: int(v),
					Nodes: u, Items: u, DomChecks: u, Pruned: u, HeapPushes: u,
					Status: int(v), RequestNs: v,
				})
			}
		}()
	}
	deadline := time.Now().Add(dur)
	reads, torn := 0, 0
	for time.Now().Before(deadline) {
		for _, o := range r.Dump() {
			reads++
			v, u := o.LatencyNs, uint64(o.LatencyNs)
			if o.WhenUnixNs != v || o.K != int(v) || o.Nodes != u || o.Items != u || o.DomChecks != u ||
				o.Pruned != u || o.HeapPushes != u || o.Status != int(v) || o.RequestNs != v {
				torn++
			}
		}
	}
	close(stop)
	wg.Wait()
	if reads == 0 {
		t.Fatal("reader saw no ops")
	}
	if torn != 0 {
		t.Fatalf("%d of %d ops read were torn", torn, reads)
	}
}

// TestFlightDumpWallClock checks the /debug/slow view renders when_unix_ns
// as an RFC3339 when string (ISSUE 9: entries correlate with the timeline
// and logs).
func TestFlightDumpWallClock(t *testing.T) {
	var r SlowRing
	when := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	r.Record(&Op{WhenUnixNs: when.UnixNano(), LatencyNs: 999})
	recs := SlowRecords(r.Dump())
	if len(recs) != 1 {
		t.Fatalf("dump holds %d records, want 1", len(recs))
	}
	got, err := time.Parse(time.RFC3339Nano, recs[0].When)
	if err != nil {
		t.Fatalf("When %q not RFC3339Nano: %v", recs[0].When, err)
	}
	if got.UnixNano() != when.UnixNano() {
		t.Errorf("When = %v, want %v", got, when)
	}
}

// TestRequestChromeTraceExport renders a served, forest-walking op through
// the one Chrome writer.
func TestRequestChromeTraceExport(t *testing.T) {
	op := &Op{
		RequestID: "abc-1", Collection: "default", Endpoint: "knn", Status: 200,
		K: 5, WhenUnixNs: 1000, LatencyNs: 450, RequestNs: 500,
		Forest: Forest{
			Shards: []ShardSpan{
				{Shard: 0, Order: 1, LatencyNs: 200, Candidates: 7, BoundObserved: BoundValue(math.Inf(1)), BoundPublished: 3.5},
				{Shard: 1, Order: 0, LatencyNs: 300, Candidates: 9, BoundObserved: 3.5, BoundPublished: 3.5},
				{Shard: 2, Order: -1, Skipped: true},
			},
			Merge: MergeSpan{LatencyNs: 50, Candidates: 16, Pruned: 11, Results: 5},
		},
	}
	export := func(ops []*Op) []map[string]any {
		t.Helper()
		var sb strings.Builder
		if err := WriteChromeTrace(&sb, ops); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
			t.Fatalf("invalid trace_event JSON: %v\n%s", err, sb.String())
		}
		return doc.TraceEvents
	}
	events := export([]*Op{op})
	// 1 process meta + request root + search + 2 thread metas + 2 shard
	// spans + 1 merge; the skipped shard draws nothing.
	if len(events) != 8 {
		t.Fatalf("%d events, want 8: %v", len(events), events)
	}
	shardSpans := 0
	for _, e := range events {
		switch e["name"] {
		case "knn":
			if e["dur"].(float64) != 0.5 || e["tid"].(float64) != 0 {
				t.Errorf("request root span = %v, want the request's 500ns on thread 0", e)
			}
		case "search":
			if e["dur"].(float64) != 0.45 {
				t.Errorf("search span = %v, want the search's 450ns", e)
			}
		case "shard-search":
			shardSpans++
			args := e["args"].(map[string]any)
			if args["request_id"] != "abc-1" {
				t.Fatalf("shard span missing request_id: %v", e)
			}
			// Shard 1 (thread 2) was visited first; shard 0 (thread 1)
			// starts where it ended.
			if want := map[float64]float64{1: 0.3, 2: 0}[e["tid"].(float64)]; e["ts"].(float64) != want {
				t.Errorf("shard span on thread %v starts at %v µs, want %v", e["tid"], e["ts"], want)
			}
			// The Inf bound must surface as null, never +Inf (which would
			// have failed the whole encode).
			if v, ok := args["distk_observed"]; ok && v != nil {
				if f, isF := v.(float64); isF && math.IsInf(f, 0) {
					t.Fatalf("Inf leaked into trace args: %v", e)
				}
			}
		case "merge":
			if e["ts"].(float64) != 0.5 {
				t.Errorf("merge span starts at %v µs, want after both shards (0.5)", e["ts"])
			}
		}
	}
	if shardSpans != 2 {
		t.Fatalf("%d shard spans, want 2", shardSpans)
	}

	// Empty set still produces a valid document.
	if events := export(nil); len(events) != 0 {
		t.Fatalf("empty export has %d events", len(events))
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	ResetForTest()
	Slow.Record(&Op{
		RequestID: "req-9", Collection: "default", Endpoint: "knn",
		Status: 200, K: 3, LatencyNs: 1000, RequestNs: 1234,
		Forest: Forest{Shards: []ShardSpan{{Shard: 0, Candidates: 5, BoundObserved: BoundValue(math.Inf(1))}}},
	})
	Slow.Record(&Op{Substrate: "sstree", LatencyNs: 77}) // a library search: no request view
	defer ResetForTest()
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	body := httpGet(t, ts.URL+"/debug/requests")
	var recs []RequestRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(recs) != 1 || recs[0].RequestID != "req-9" || len(recs[0].Shards) != 1 {
		t.Fatalf("records %+v", recs)
	}
	if recs[0].LatencyNs != 1234 || recs[0].ShardsVisited != 1 {
		t.Errorf("request view latency %d visited %d, want the request's 1234 and 1", recs[0].LatencyNs, recs[0].ShardsVisited)
	}
	if !strings.Contains(body, `"distk_observed": null`) {
		t.Fatalf("Inf bound not serialized as null:\n%s", body)
	}

	// Both ops are in /debug/slow, the served one by its search latency and
	// joined to the request view by request_id.
	var slow []SlowRecord
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/debug/slow")), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow) != 2 || slow[0].RequestID != "req-9" || slow[0].LatencyNs != 1000 || slow[1].RequestID != "" {
		t.Fatalf("/debug/slow = %+v", slow)
	}

	chrome := httpGet(t, ts.URL+"/debug/requests?format=chrome")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v\n%s", err, chrome)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}

	// Empty ring must serve [].
	ResetForTest()
	body = httpGet(t, ts.URL+"/debug/requests")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty dump = %q, want []", body)
	}
}
