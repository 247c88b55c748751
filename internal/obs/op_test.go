package obs

import (
	"bytes"
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
			WhenUnixNs: lat, RequestNs: lat,
			Collection: "test-collection", Endpoint: "test-endpoint",
			K: int(lat), Status: int(2 * lat), ShardsVisited: int(3 * lat),
		})
	}
	dump := r.Dump()
	if len(dump) != SlowSlots {
		t.Fatalf("ring holds %d ops, want %d", len(dump), SlowSlots)
	}
	for i, o := range dump {
		want := int64(n - i) // slowest SlowSlots are n, n-1, ..., n-SlowSlots+1
		if o.RequestNs != want {
			t.Errorf("dump[%d].RequestNs = %d, want %d", i, o.RequestNs, want)
		}
		if o.Collection != "test-collection" || o.Endpoint != "test-endpoint" {
			t.Errorf("dump[%d] labels = (%q, %q)", i, o.Collection, o.Endpoint)
		}
		lat := int(o.RequestNs)
		if o.WhenUnixNs != o.RequestNs || o.K != lat || o.Status != 2*lat || o.ShardsVisited != 3*lat {
			t.Errorf("dump[%d] fields do not match the op offered: %+v", i, o)
		}
	}
	// An op no slower than the retained minimum must be rejected on the
	// fast path and must not disturb the ring.
	r.Record(&Op{RequestNs: int64(n - SlowSlots)})
	if again := r.Dump(); len(again) != SlowSlots || again[SlowSlots-1].RequestNs != int64(n-SlowSlots+1) {
		t.Error("rejected op disturbed the ring")
	}
	if got := r.floor.Load(); got != int64(n-SlowSlots+1) {
		t.Errorf("admission floor = %d, want the fastest retained latency %d", got, n-SlowSlots+1)
	}
}

// TestRingAdmissionAndDump ranks served ops by their request latency:
// ascending fill past capacity keeps the SlowSlots slowest requests, a
// too-fast one is rejected once full, and Reset empties the ring and
// reopens admission.
func TestRingAdmissionAndDump(t *testing.T) {
	var r SlowRing
	for i := 0; i < SlowSlots+16; i++ {
		r.Record(&Op{RequestID: "r", RequestNs: int64(i + 1)})
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
	r.Record(&Op{RequestID: "fast", RequestNs: 2})
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
	r.Record(&Op{RequestNs: 100})
	r.Reset()
	if dump := r.Dump(); len(dump) != 0 {
		t.Fatalf("ring holds %d ops after Reset, want 0", len(dump))
	}
	r.Record(&Op{RequestNs: 5})
	if dump := r.Dump(); len(dump) != 1 || dump[0].RequestNs != 5 {
		t.Error("ring does not admit after Reset")
	}
}

// TestSlowRingKeepsRecentOps pins what "recent" means: the ring holds the
// slowest ops of the window, not of the process lifetime. An hour-old
// process recorded 64 ops of 50 ms in its first minute; a timeline tick now
// expires them, so a 40 ms op recorded after it is retained, and it survives
// the next tick, whose window still reaches back past its start.
func TestSlowRingKeepsRecentOps(t *testing.T) {
	ResetForTest()
	t.Cleanup(ResetForTest)
	boot := time.Now().Add(-time.Hour)
	for i := 0; i < SlowSlots; i++ {
		Slow.Record(&Op{
			WhenUnixNs: boot.Add(time.Duration(i) * time.Second).UnixNano(),
			RequestNs:  (50 * time.Millisecond).Nanoseconds(),
		})
	}
	if n := len(Slow.Dump()); n != SlowSlots {
		t.Fatalf("ring holds %d boot-time ops before any tick, want %d (no ticker, no expiry)", n, SlowSlots)
	}

	TimelineTick() // the window's base: now
	recent := (40 * time.Millisecond).Nanoseconds()
	Slow.Record(&Op{WhenUnixNs: time.Now().UnixNano(), RequestNs: recent})
	TimelineTick()

	dump := Slow.Dump()
	if len(dump) == 0 || dump[0].RequestNs != recent {
		t.Fatalf("the recent 40 ms op is not the slowest retained op (%d ops retained)", len(dump))
	}
	oldest := dump[0].WhenUnixNs
	for _, o := range dump {
		oldest = min(oldest, o.WhenUnixNs)
	}
	if oldest < boot.Add(time.Minute).UnixNano() {
		t.Errorf("oldest retained op started %v ago, at boot: boot-time ops never expire",
			time.Since(time.Unix(0, oldest)).Round(time.Second))
	}
}

// TestFlightRecordAllocs pins the cost of the record path: an op that is
// not admitted allocates nothing (the caller's Op stays on its stack), an
// admitted one exactly its heap copy.
func TestFlightRecordAllocs(t *testing.T) {
	var r SlowRing
	for i := 0; i < SlowSlots; i++ {
		r.Record(&Op{RequestNs: 1000 + int64(i)})
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Record(&Op{RequestNs: 1, RequestID: "x", Endpoint: "knn"})
	}); allocs != 0 {
		t.Errorf("non-admitted Record allocates %.1f times per call, want 0", allocs)
	}
	var admitLat int64 = 10000
	if allocs := testing.AllocsPerRun(100, func() {
		admitLat++
		r.Record(&Op{RequestNs: admitLat})
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
					if !offered(o.RequestNs) {
						t.Errorf("dump returned latency %d that was never offered", o.RequestNs)
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
				r.Record(&Op{RequestNs: int64(w*per + i + 1), K: w})
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
	if dump[0].RequestNs != workers*per {
		t.Errorf("slowest retained latency = %d, want %d", dump[0].RequestNs, workers*per)
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
				r.Record(&Op{
					WhenUnixNs: v, RequestNs: v, K: int(v), Status: int(v), ShardsVisited: int(v),
					Forest: Forest{Merge: MergeSpan{LatencyNs: v, Candidates: int(v), Pruned: int(v), Results: int(v)}},
				})
			}
		}()
	}
	deadline := time.Now().Add(dur)
	reads, torn := 0, 0
	for time.Now().Before(deadline) {
		for _, o := range r.Dump() {
			reads++
			v, m := o.RequestNs, o.Merge
			if o.WhenUnixNs != v || o.K != int(v) || o.Status != int(v) || o.ShardsVisited != int(v) ||
				m.LatencyNs != v || m.Candidates != int(v) || m.Pruned != int(v) || m.Results != int(v) {
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

// TestFlightDumpWallClock checks Dump renders when_unix_ns as an RFC3339
// when string, so entries correlate with the access log.
func TestFlightDumpWallClock(t *testing.T) {
	var r SlowRing
	when := time.Date(2026, 8, 7, 12, 30, 45, 123456789, time.UTC)
	r.Record(&Op{WhenUnixNs: when.UnixNano(), RequestNs: 999})
	recs := r.Dump()
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

// TestDebugRequestsEndpoint pins one /debug/requests entry byte for byte:
// keys, key order and values, the Inf bound as null. ?format=chrome is an
// unknown parameter like any other.
func TestDebugRequestsEndpoint(t *testing.T) {
	ResetForTest()
	defer ResetForTest()
	Slow.Record(&Op{
		RequestID: "req-9", Collection: "default", Endpoint: "knn",
		Status: 200, K: 3, WhenUnixNs: 1000, RequestNs: 1234, ShardsVisited: 1,
		Forest: Forest{
			Shards: []ShardSpan{{Shard: 0, Items: 9, Candidates: 5, LatencyNs: 40, BoundObserved: BoundValue(math.Inf(1)), BoundPublished: 2.5}},
			Merge:  MergeSpan{LatencyNs: 7, Candidates: 5, Pruned: 2, Results: 3},
		},
	})
	ts := httptest.NewServer(Handler())
	defer ts.Close()

	body := httpGet(t, ts.URL+"/debug/requests")
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(body)); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	when := time.Unix(0, 1000).Format(time.RFC3339Nano)
	want := `[{"request_id":"req-9","collection":"default","endpoint":"knn","status":200,"k":3,` +
		`"when_unix_ns":1000,"when":"` + when + `","latency_ns":1234,"shards_visited":1,` +
		`"shards":[{"shard":0,"items":9,"order":0,"skipped":false,"latency_ns":40,"queue_wait_ns":0,` +
		`"candidates":5,"nodes_visited":0,"items_scanned":0,"coarse_prunes":0,"distk_observed":null,"distk_published":2.5}],` +
		`"merge":{"latency_ns":7,"candidates":5,"pruned":2,"results":3}}]`
	if compact.String() != want {
		t.Fatalf("/debug/requests entry\n got %s\nwant %s", compact.String(), want)
	}
	if chrome := httpGet(t, ts.URL+"/debug/requests?format=chrome"); chrome != body {
		t.Errorf("?format=chrome changed the view:\n%s", chrome)
	}

}
