package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"knn.search_latency":        "hyperdom_knn_search_latency",
		"dominance.hyperbola.trues": "hyperdom_dominance_hyperbola_trues",
		"weird-name with spaces/9":  "hyperdom_weird_name_with_spaces_9",
		"":                          "hyperdom_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// familyLines returns, in order, the exposition lines of the metric families
// whose names start with prefix — the part of a /metrics document a test can
// pin byte for byte while sharing the process-wide registry with its
// neighbours.
func familyLines(body, prefix string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if strings.HasPrefix(strings.TrimPrefix(line, "# TYPE "), prefix) {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestMetricsEndpoint drives /metrics through the real handler and checks
// the Prometheus text contract: 200, the versioned content type, and — byte
// for byte — the families this test populates: a # TYPE line per family,
// cumulative _bucket series in seconds ending in +Inf, _sum/_count lines,
// and the windowed _1m quantile gauges of the same histogram.
func TestMetricsEndpoint(t *testing.T) {
	c := New("test.expo.counter")
	startWindow(t) // the counter moves before the baseline: no rate family for it
	c.Add(7)
	StartTimeline(time.Hour)
	h := NewHistogram("test.expo.hist", `kind="a"`)
	h.Record(100)
	h.Record(200)
	h.Record(1 << 20)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	const want = `# TYPE hyperdom_test_expo_counter counter
hyperdom_test_expo_counter 7
# TYPE hyperdom_test_expo_hist_seconds histogram
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="1.04e-07"} 1
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="2.08e-07"} 2
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="0.001114112"} 3
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="+Inf"} 3
hyperdom_test_expo_hist_seconds_sum{kind="a"} 0.001048876
hyperdom_test_expo_hist_seconds_count{kind="a"} 3
# TYPE hyperdom_test_expo_hist_seconds_1m gauge
hyperdom_test_expo_hist_seconds_1m{quantile="0.5"} 2e-07
hyperdom_test_expo_hist_seconds_1m{quantile="0.9"} 0.001048576
hyperdom_test_expo_hist_seconds_1m{quantile="0.99"} 0.001048576
hyperdom_test_expo_hist_seconds_1m{quantile="0.999"} 0.001048576
# TYPE hyperdom_test_expo_hist_seconds_1m_count gauge
hyperdom_test_expo_hist_seconds_1m_count 3
`
	if got := familyLines(body, "hyperdom_test_expo_"); got != want {
		t.Errorf("/metrics families of this test:\n%s\nwant:\n%s", got, want)
	}

	// One # TYPE line per family, even with multiple labeled instances.
	NewHistogram("test.expo.hist", `kind="b"`).Record(50)
	resp2, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	const wantB = `# TYPE hyperdom_test_expo_hist_seconds histogram
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="1.04e-07"} 1
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="2.08e-07"} 2
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="0.001114112"} 3
hyperdom_test_expo_hist_seconds_bucket{kind="a",le="+Inf"} 3
hyperdom_test_expo_hist_seconds_sum{kind="a"} 0.001048876
hyperdom_test_expo_hist_seconds_count{kind="a"} 3
hyperdom_test_expo_hist_seconds_bucket{kind="b",le="5.2e-08"} 1
hyperdom_test_expo_hist_seconds_bucket{kind="b",le="+Inf"} 1
hyperdom_test_expo_hist_seconds_sum{kind="b"} 5e-08
hyperdom_test_expo_hist_seconds_count{kind="b"} 1
`
	if got := familyLines(string(raw2), "hyperdom_test_expo_hist_seconds"); !strings.HasPrefix(got, wantB) {
		t.Errorf("two-instance family:\n%s\nwant it to start:\n%s", got, wantB)
	}
}

// TestLabeledCountersAndGaugesExposition pins the labeled-family text: label
// pairs split back out of the registry key, one # TYPE line per family
// however many label sets it has, flat and labeled gauges.
func TestLabeledCountersAndGaugesExposition(t *testing.T) {
	ResetForTest()
	SetEnabled(true)
	defer SetEnabled(false)
	defer ResetForTest()

	GetOrNewLabeled("test.lab.requests_total", `code="200",endpoint="knn"`).Add(3)
	GetOrNewLabeled("test.lab.requests_total", `code="404",endpoint="knn"`).Inc()
	New("test.lab.requests_total_seen").Add(2) // sorts between the two by raw key
	SetGauge("test.lab.build_info", `version="test",go_version="go0",quant_mode="f32"`, 1)
	SetGauge("test.lab.plain_gauge", "", 2.5)
	// A name used bare and labeled, with a longer sibling that raw key order
	// ("g", "g_b", "g|l=…") would put between the two.
	SetGauge("test.lab.g", "", 1)
	SetGauge("test.lab.g_b", "", 2)
	SetGauge("test.lab.g", `l="x"`, 3)

	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE hyperdom_test_lab_requests_total counter
hyperdom_test_lab_requests_total{code="200",endpoint="knn"} 3
hyperdom_test_lab_requests_total{code="404",endpoint="knn"} 1
# TYPE hyperdom_test_lab_requests_total_seen counter
hyperdom_test_lab_requests_total_seen 2
# TYPE hyperdom_test_lab_build_info gauge
hyperdom_test_lab_build_info{version="test",go_version="go0",quant_mode="f32"} 1
# TYPE hyperdom_test_lab_g gauge
hyperdom_test_lab_g 1
hyperdom_test_lab_g{l="x"} 3
# TYPE hyperdom_test_lab_g_b gauge
hyperdom_test_lab_g_b 2
# TYPE hyperdom_test_lab_plain_gauge gauge
hyperdom_test_lab_plain_gauge 2.5
`
	if got := familyLines(sb.String(), "hyperdom_test_lab_"); got != want {
		t.Fatalf("labeled families:\n%s\nwant:\n%s", got, want)
	}

	if v, ok := GaugeValue("test.lab.plain_gauge", ""); !ok || v != 2.5 {
		t.Fatalf("GaugeValue = %v, %v", v, ok)
	}
	if _, ok := GaugeValue("missing", ""); ok {
		t.Fatal("missing gauge reported present")
	}
}

// TestSlowEndpoint checks /debug/slow serves the ring's dump as valid JSON
// in descending latency order.
func TestSlowEndpoint(t *testing.T) {
	Slow.Reset()
	defer Slow.Reset()
	Slow.Record(&Op{LatencyNs: 300, Substrate: "expo-substrate", K: 10, Nodes: 42})
	Slow.Record(&Op{LatencyNs: 700, Substrate: "expo-substrate", K: 5, Nodes: 99})

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/slow status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/debug/slow Content-Type = %q", ct)
	}
	var recs []SlowRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatalf("/debug/slow is not valid JSON: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("/debug/slow returned %d records, want 2", len(recs))
	}
	if recs[0].LatencyNs != 700 || recs[1].LatencyNs != 300 {
		t.Errorf("records not in descending latency order: %+v", recs)
	}
	if recs[0].Substrate != "expo-substrate" || recs[0].K != 5 || recs[0].Nodes != 99 {
		t.Errorf("record fields lost in exposition: %+v", recs[0])
	}
}

// TestSlowEndpointEmpty checks the empty-recorder case: /debug/slow must
// serve [] (never null), with the JSON content type.
func TestSlowEndpointEmpty(t *testing.T) {
	Slow.Reset()
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/debug/slow Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSpace(string(raw))
	if body != "[]" {
		t.Errorf("empty /debug/slow body = %q, want []", body)
	}
}

// TestTraceEndpoint checks /debug/trace is gone: the sampled node-level
// trace it served is retired, and the per-query record is the Slow ring's
// Op, served by /debug/slow and /debug/requests.
func TestTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace status = %d, want 404", resp.StatusCode)
	}
}

// TestDebugEndpoints checks the pprof index responds and unknown paths —
// the retired /debug/vars among them — do not.
func TestDebugEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	for path, want := range map[string]bool{"/debug/pprof/": true, "/debug/vars": false, "/metrics/nope": false} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if got := resp.StatusCode == 200; got != want {
			t.Errorf("%s status = %d, want 200: %v", path, resp.StatusCode, want)
		}
		resp.Body.Close()
	}
}
