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

// TestWindowedExposition checks /metrics carries the _1m windowed quantile
// and rate families alongside the cumulative ones after a timeline tick.
func TestWindowedExposition(t *testing.T) {
	GetOrNewLabeled("test.expo.win_requests", `code="200"`).Add(40)
	startWindow(t) // the baseline reading
	h := GetOrNewHistogram("test.expo.win_latency", "")
	for i := 0; i < 1000; i++ {
		h.Record(int64(i) * 1000)
	}
	GetOrNewLabeled("test.expo.win_requests", `code="200"`).Add(60)
	time.Sleep(2 * time.Millisecond)
	TimelineTick() // runtime gauges appear; the window still starts at the baseline

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		"# TYPE hyperdom_test_expo_win_latency_seconds_1m gauge",
		`hyperdom_test_expo_win_latency_seconds_1m{quantile="0.99"}`,
		"hyperdom_test_expo_win_latency_seconds_1m_count",
		"# TYPE hyperdom_test_expo_win_requests_rate_1m gauge",
		`hyperdom_test_expo_win_requests_rate_1m{code="200"}`,
		"hyperdom_runtime_goroutines",
		"hyperdom_runtime_heap_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// After the window expires, the _1m family disappears (no stale zeros)
	// while the cumulative histogram stays.
	for i := 0; i < WinSlots; i++ {
		TimelineTick()
	}
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(raw2), "hyperdom_test_expo_win_latency_seconds_1m{") {
		t.Error("expired window still exposes _1m quantiles")
	}
	if !strings.Contains(string(raw2), "hyperdom_test_expo_win_latency_seconds_bucket") {
		t.Error("cumulative histogram vanished with its window")
	}
}

// TestNoWindowWithoutTimeline pins what a process that never starts a
// timeline exposes: the cumulative families, and no _1m / _rate_1m family —
// not lifetime totals under a one-minute name.
func TestNoWindowWithoutTimeline(t *testing.T) {
	ResetForTest()
	h := GetOrNewHistogram("test.expo.nowin_latency", "")
	for i := 0; i < 100; i++ {
		h.Record(int64(i) * 1000)
	}
	GetOrNew("test.expo.nowin_requests").Add(40)

	var sb strings.Builder
	if err := WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if !strings.Contains(body, `hyperdom_test_expo_nowin_latency_seconds_bucket{le="+Inf"} 100`) ||
		!strings.Contains(body, "hyperdom_test_expo_nowin_requests 40") {
		t.Errorf("cumulative families missing:\n%s", familyLines(body, "hyperdom_test_expo_nowin"))
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, "_1m") {
			t.Errorf("windowed family with no timeline running: %s", line)
		}
	}
	if v := Health(); v.Status != HealthOK {
		t.Errorf("Health with no window = %s, want ok", v.Status)
	}
}

// TestWindowSpanCoversQuantilesAndRates pins that a snapshot's quantiles and
// rates cover one span, the one window_ns reports: what happened before the
// timeline started is in neither, what happened after is in both.
func TestWindowSpanCoversQuantilesAndRates(t *testing.T) {
	ResetForTest()
	h := GetOrNewHistogram("test.span.latency", "")
	c := GetOrNew("test.span.requests")
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	c.Add(100)

	StartTimeline(time.Hour)
	t.Cleanup(StopTimeline)
	baseline := readings.ring[0].when
	for i := 0; i < 7; i++ {
		h.Record(2000)
	}
	c.Add(7)
	time.Sleep(2 * time.Millisecond)
	TimelineTick()

	s := TimelineSnapshots()[0]
	if got := s.Quantiles["test.span.latency"].Count; got != 7 {
		t.Errorf("first snapshot counts %d samples, want the 7 recorded since the timeline started", got)
	}
	span := time.Duration(s.WindowNs)
	if want := time.Unix(0, s.WhenUnixNs).Sub(baseline); span < want-100*time.Microsecond || span > want+100*time.Microsecond {
		t.Errorf("window_ns = %v, want the time since the baseline %v", span, want)
	}
	if got := s.RatesPerSec["test.span.requests"] * span.Seconds(); got < 6.9 || got > 7.1 {
		t.Errorf("first snapshot's rate × span = %v increments, want the 7 made since the timeline started", got)
	}
}

// TestTimelineEndpoint checks /debug/timeline serves the ring as a JSON
// array (empty ring → []) with windowed quantiles present.
func TestTimelineEndpoint(t *testing.T) {
	startWindow(t)
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func() []map[string]any {
		resp, err := http.Get(srv.URL + "/debug/timeline")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("/debug/timeline not a JSON array: %v", err)
		}
		return out
	}

	if got := get(); len(got) != 0 {
		t.Fatalf("empty ring served %d snapshots, want []", len(got))
	}

	h := GetOrNewHistogram("test.timeline.endpoint", "")
	for i := 0; i < 50; i++ {
		h.Record(5000)
	}
	TimelineTick()
	snaps := get()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	q, ok := snaps[0]["windowed_quantiles"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot missing windowed_quantiles: %v", snaps[0])
	}
	fam, ok := q["test.timeline.endpoint"].(map[string]any)
	if !ok {
		t.Fatalf("windowed_quantiles missing the recorded family: %v", q)
	}
	if fam["p99"] == nil {
		t.Error("p99 is null for a family with samples in the window")
	}
	if _, err := time.Parse(time.RFC3339Nano, snaps[0]["when"].(string)); err != nil {
		t.Errorf("snapshot when field: %v", err)
	}
}

// TestHealthEndpoint checks /debug/health serves the structured verdict,
// 200 for ok/degraded and 503 for unhealthy.
func TestHealthEndpoint(t *testing.T) {
	startWindow(t)
	t.Cleanup(func() {
		healthCfg.mu.Lock()
		healthCfg.cfg = HealthConfig{}
		healthCfg.mu.Unlock()
	})
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func() (int, HealthVerdict) {
		resp, err := http.Get(srv.URL + "/debug/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v HealthVerdict
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("/debug/health not JSON: %v", err)
		}
		return resp.StatusCode, v
	}

	if code, v := get(); code != http.StatusOK || v.Status != HealthOK {
		t.Errorf("unconfigured health = %d %q, want 200 ok", code, v.Status)
	}

	SetHealthConfig(HealthConfig{LatencyP99Max: time.Millisecond})
	h := GetOrNewHistogram(healthLatencyFamily, "")
	for i := 0; i < 100; i++ {
		h.Record((1500 * time.Microsecond).Nanoseconds())
	}
	code, v := get()
	if code != http.StatusOK || v.Status != HealthDegraded {
		t.Errorf("degraded health = %d %q, want 200 degraded", code, v.Status)
	}
	if len(v.Reasons) == 0 || len(v.Checks) == 0 {
		t.Errorf("degraded verdict carries no reasons/checks: %+v", v)
	}

	startWindow(t)
	for i := 0; i < 100; i++ {
		h.Record((10 * time.Millisecond).Nanoseconds())
	}
	if code, v := get(); code != http.StatusServiceUnavailable || v.Status != HealthUnhealthy {
		t.Errorf("unhealthy health = %d %q, want 503 unhealthy", code, v.Status)
	}
}
