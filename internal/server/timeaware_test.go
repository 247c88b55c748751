package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperdom/internal/obs"
)

// knnQuery fires one valid kNN request against the test server.
func knnQuery(t *testing.T, ts string) {
	t.Helper()
	resp := postJSON(t, ts+"/v1/collections/default/knn",
		map[string]any{"center": []float64{100, 100, 100}, "radius": 0.5, "k": 3})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knn query status %d", resp.StatusCode)
	}
}

// TestHealthAndTimelineEndpoints drives the served time-aware surfaces end
// to end, as hyperdomd runs them: the runtime gauges are on the first scrape
// after the timeline starts, queries land inside the window it opened, one
// tick later /metrics carries the windowed request-latency quantiles and
// request rates, /debug/health grades them ok against sane thresholds, and
// /debug/timeline is gone.
func TestHealthAndTimelineEndpoints(t *testing.T) {
	prev := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	obs.ResetForTest()
	obs.StartTimeline() // its first tick is now; the test drives the next by hand
	t.Cleanup(obs.StopTimeline)
	obs.SetHealthConfig(obs.HealthConfig{
		LatencyP99Max: 5 * time.Second, // generous: CI machines are slow, not degraded
		ErrorRateMax:  0.5,
	})
	t.Cleanup(func() { obs.SetHealthConfig(obs.HealthConfig{}) })

	items := testCorpus(t, 3, 400)
	_, ts := testServer(t, items, 3)
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	gauge := func(body, name string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("/metrics has no %s line", name)
		return 0
	}

	if v := gauge(scrape(), "hyperdom_runtime_goroutines"); v <= 0 {
		t.Errorf("first scrape: hyperdom_runtime_goroutines = %v, want > 0", v)
	}
	for i := 0; i < 10; i++ {
		knnQuery(t, ts.URL)
	}
	obs.TimelineTick()

	body := scrape()
	if n := gauge(body, "hyperdom_server_request_latency_seconds_1m_count"); n < 10 {
		t.Errorf("windowed request latency count = %v, want ≥ 10", n)
	}
	for _, want := range []string{
		`hyperdom_server_request_latency_seconds_1m{quantile="0.99"} `,
		`hyperdom_server_requests_total_rate_1m{`,
		"hyperdom_server_inflight_requests ",
		"hyperdom_runtime_heap_bytes ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after a tick lacks %q", want)
		}
	}

	tresp, err := http.Get(ts.URL + "/debug/timeline")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/timeline status = %d, want 404", tresp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var verdict obs.HealthVerdict
	if err := json.NewDecoder(hresp.Body).Decode(&verdict); err != nil {
		t.Fatalf("/debug/health decode: %v", err)
	}
	if hresp.StatusCode != http.StatusOK || verdict.Status != obs.HealthOK {
		t.Errorf("health = %d %q (%v), want 200 ok", hresp.StatusCode, verdict.Status, verdict.Reasons)
	}
	if len(verdict.Checks) != 2 {
		t.Errorf("health ran %d checks, want 2 (latency, error rate)", len(verdict.Checks))
	}
}

// TestReadyzReportsDegraded pins the readiness contract under degraded
// health: still 200 with "ready" as the first line (orchestrators and the
// CI gate grep for it), with the health status and reasons appended.
func TestReadyzReportsDegraded(t *testing.T) {
	prev := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	obs.ResetForTest()
	obs.TimelineTick() // health grades a window; this opens one
	t.Cleanup(obs.StopTimeline)
	t.Cleanup(func() { obs.SetHealthConfig(obs.HealthConfig{}) })

	items := testCorpus(t, 3, 100)
	s, ts := testServer(t, items, 3)

	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Errorf("pre-ready /readyz = %d %q, want 503 not ready", code, body)
	}
	s.SetReady(true)
	obs.SetHealthConfig(obs.HealthConfig{})
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "ready") {
		t.Errorf("healthy /readyz = %d %q, want 200 starting with ready", code, body)
	}

	// Degrade: tiny latency threshold plus slow recorded samples.
	obs.SetHealthConfig(obs.HealthConfig{
		LatencyP99Max: time.Nanosecond,
	})
	knnQuery(t, ts.URL)
	code, body := get()
	if code != http.StatusOK {
		t.Errorf("degraded /readyz status = %d, want 200 (degraded is not unready)", code)
	}
	if !strings.HasPrefix(body, "ready") {
		t.Errorf("degraded /readyz body %q does not start with ready", body)
	}
	if !strings.Contains(body, "health: ") {
		t.Errorf("degraded /readyz body %q does not report health status", body)
	}
}

// TestRequestTraceWallClock checks /debug/requests entries carry the
// RFC3339 when field alongside when_unix_ns, to correlate with access logs.
func TestRequestTraceWallClock(t *testing.T) {
	prev := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	obs.ResetForTest()

	items := testCorpus(t, 3, 200)
	_, ts := testServer(t, items, 3)
	before := time.Now().Add(-time.Second)
	knnQuery(t, ts.URL)

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []struct {
		WhenUnixNs int64  `json:"when_unix_ns"`
		When       string `json:"when"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no request traces retained")
	}
	for _, tr := range traces {
		w, err := time.Parse(time.RFC3339Nano, tr.When)
		if err != nil {
			t.Fatalf("when %q not RFC3339Nano: %v", tr.When, err)
		}
		if w.UnixNano() != tr.WhenUnixNs {
			t.Errorf("when %q (%d) disagrees with when_unix_ns %d", tr.When, w.UnixNano(), tr.WhenUnixNs)
		}
		if w.Before(before) || w.After(time.Now().Add(time.Second)) {
			t.Errorf("when %q outside the test run", tr.When)
		}
	}
}

// TestInflightGauge checks the server.inflight_requests callback gauge
// reads zero at rest (the bracket decrements on every path).
func TestInflightGauge(t *testing.T) {
	prev := obs.On()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	items := testCorpus(t, 3, 100)
	_, ts := testServer(t, items, 3)
	for i := 0; i < 5; i++ {
		knnQuery(t, ts.URL)
	}
	// An invalid request exercises the error path's decrement too.
	resp := postJSON(t, ts.URL+"/v1/collections/default/knn", map[string]any{"k": 0})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if v, ok := obs.GaugeValue("server.inflight_requests", ""); !ok || v != 0 {
		t.Errorf("inflight at rest = %v,%v want 0,true", v, ok)
	}
}
