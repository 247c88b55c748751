package obs

import (
	"strings"
	"testing"
	"time"
)

// resetHealth restores the disabled zero config after a test.
func resetHealth(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		healthCfg.mu.Lock()
		healthCfg.cfg = HealthConfig{}
		healthCfg.mu.Unlock()
	})
}

// TestHealthUnconfigured pins the default: no thresholds, ok verdict, no
// checks.
func TestHealthUnconfigured(t *testing.T) {
	resetHealth(t)
	v := Health()
	if v.Status != HealthOK || len(v.Checks) != 0 || len(v.Reasons) != 0 {
		t.Errorf("unconfigured Health = %+v, want plain ok", v)
	}
	if v.When == "" || v.WhenUnixNs == 0 {
		t.Error("verdict missing wall-clock stamp")
	}
}

// TestHealthLatencyCheck walks the windowed-p99 check through ok, degraded
// (over threshold) and unhealthy (over twice), and pins the no-data case to
// ok.
func TestHealthLatencyCheck(t *testing.T) {
	startWindow(t)
	resetHealth(t)
	SetHealthConfig(HealthConfig{
		LatencyP99Max: time.Millisecond,
	})

	// No samples in the window: an idle server is a healthy server.
	if v := Health(); v.Status != HealthOK {
		t.Errorf("no-data latency verdict = %s, want ok", v.Status)
	}

	h := GetOrNewHistogram(healthLatencyFamily, "")
	for i := 0; i < 100; i++ {
		h.Record((500 * time.Microsecond).Nanoseconds())
	}
	if v := Health(); v.Status != HealthOK {
		t.Errorf("under-threshold verdict = %s, want ok", v.Status)
	}

	startWindow(t)
	for i := 0; i < 100; i++ {
		h.Record((1500 * time.Microsecond).Nanoseconds())
	}
	v := Health()
	if v.Status != HealthDegraded {
		t.Errorf("1.5x-threshold verdict = %s, want degraded", v.Status)
	}
	if len(v.Reasons) != 1 || !strings.Contains(v.Reasons[0], healthLatencyFamily) {
		t.Errorf("degraded Reasons = %v, want one naming the family", v.Reasons)
	}

	startWindow(t)
	for i := 0; i < 100; i++ {
		h.Record((5 * time.Millisecond).Nanoseconds())
	}
	if v := Health(); v.Status != HealthUnhealthy {
		t.Errorf("5x-threshold verdict = %s, want unhealthy", v.Status)
	}

	// Expiring the window restores ok without touching the cumulative data.
	for i := 0; i < WinSlots; i++ {
		TimelineTick()
	}
	if v := Health(); v.Status != HealthOK {
		t.Errorf("post-expiry verdict = %s, want ok", v.Status)
	}
	if got := h.Snap().Count; got != 100 {
		t.Errorf("cumulative Count = %d after expiry, want 100", got)
	}
}

// errorTraffic moves the default error family's counters by ok 2xx and bad
// 5xx answers.
func errorTraffic(ok, bad uint64) {
	GetOrNewLabeled(healthErrorFamily, `code="200",endpoint="knn"`).Add(ok)
	GetOrNewLabeled(healthErrorFamily, `code="500",endpoint="knn"`).Add(bad)
}

// TestHealthErrorRateCheck moves the request counters inside a window and
// checks the 5xx-fraction math.
func TestHealthErrorRateCheck(t *testing.T) {
	resetHealth(t)
	SetHealthConfig(HealthConfig{ErrorRateMax: 0.05})

	// No traffic in the window → ok.
	startWindow(t)
	if v := Health(); v.Status != HealthOK {
		t.Errorf("idle error-rate verdict = %s, want ok", v.Status)
	}
	for _, tc := range []struct {
		ok, bad uint64
		want    string
	}{{96, 4, HealthOK}, {92, 8, HealthDegraded}, {80, 20, HealthUnhealthy}} {
		startWindow(t)
		errorTraffic(tc.ok, tc.bad)
		time.Sleep(time.Millisecond) // a window needs a span to have rates
		if v := Health(); v.Status != tc.want {
			t.Errorf("%d%% errors vs 5%% threshold: verdict = %s, want %s", tc.bad, v.Status, tc.want)
		}
	}
}

// TestHealthWorstCheckWins combines a degraded latency check with an
// unhealthy error-rate check and expects the worst to set the verdict.
func TestHealthWorstCheckWins(t *testing.T) {
	startWindow(t)
	resetHealth(t)
	SetHealthConfig(HealthConfig{
		LatencyP99Max: time.Millisecond,
		ErrorRateMax:  0.05,
	})
	h := GetOrNewHistogram(healthLatencyFamily, "")
	for i := 0; i < 100; i++ {
		h.Record((1500 * time.Microsecond).Nanoseconds()) // degraded
	}
	errorTraffic(80, 20) // 0.2 > 2*0.05 → unhealthy
	time.Sleep(time.Millisecond)
	v := Health()
	if v.Status != HealthUnhealthy {
		t.Errorf("combined verdict = %s, want unhealthy", v.Status)
	}
	if len(v.Reasons) != 2 {
		t.Errorf("Reasons = %v, want one per non-ok check", v.Reasons)
	}
	if len(v.Checks) != 2 {
		t.Errorf("Checks = %v, want 2", v.Checks)
	}
}
