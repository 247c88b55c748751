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
	ResetForTest()
	resetHealth(t)
	SetHealthConfig(HealthConfig{
		LatencyFamily: "test.health.lat",
		LatencyP99Max: time.Millisecond,
	})

	// No samples in the window: an idle server is a healthy server.
	if v := Health(); v.Status != HealthOK {
		t.Errorf("no-data latency verdict = %s, want ok", v.Status)
	}

	h := GetOrNewHistogram("test.health.lat", "")
	for i := 0; i < 100; i++ {
		h.Record((500 * time.Microsecond).Nanoseconds())
	}
	if v := Health(); v.Status != HealthOK {
		t.Errorf("under-threshold verdict = %s, want ok", v.Status)
	}

	ResetForTest()
	for i := 0; i < 100; i++ {
		h.Record((1500 * time.Microsecond).Nanoseconds())
	}
	v := Health()
	if v.Status != HealthDegraded {
		t.Errorf("1.5x-threshold verdict = %s, want degraded", v.Status)
	}
	if len(v.Reasons) != 1 || !strings.Contains(v.Reasons[0], "test.health.lat") {
		t.Errorf("degraded Reasons = %v, want one naming the family", v.Reasons)
	}

	ResetForTest()
	for i := 0; i < 100; i++ {
		h.Record((5 * time.Millisecond).Nanoseconds())
	}
	if v := Health(); v.Status != HealthUnhealthy {
		t.Errorf("5x-threshold verdict = %s, want unhealthy", v.Status)
	}

	// Expiring the window restores ok without touching the cumulative data.
	for i := 0; i < WinSlots; i++ {
		h.RotateWindow()
	}
	if v := Health(); v.Status != HealthOK {
		t.Errorf("post-expiry verdict = %s, want ok", v.Status)
	}
}

// TestHealthErrorRateCheck feeds the rate ring synthetic request-counter
// deltas and checks the 5xx-fraction math.
func TestHealthErrorRateCheck(t *testing.T) {
	ResetForTest()
	resetHealth(t)
	SetHealthConfig(HealthConfig{ErrorRateMax: 0.05})

	okKey := "server.requests_total" + labelSep + `code="200",endpoint="knn"`
	errKey := "server.requests_total" + labelSep + `code="500",endpoint="knn"`
	Rates.Tick(Snap{okKey: 0, errKey: 0}, 0)
	Rates.Tick(Snap{okKey: 96, errKey: 4}, 10*time.Second)
	if v := Health(); v.Status != HealthOK {
		t.Errorf("4%% errors vs 5%% threshold: verdict = %s, want ok", v.Status)
	}

	Rates.Reset()
	Rates.Tick(Snap{okKey: 0, errKey: 0}, 0)
	Rates.Tick(Snap{okKey: 92, errKey: 8}, 10*time.Second)
	if v := Health(); v.Status != HealthDegraded {
		t.Errorf("8%% errors: verdict = %s, want degraded", v.Status)
	}

	Rates.Reset()
	Rates.Tick(Snap{okKey: 0, errKey: 0}, 0)
	Rates.Tick(Snap{okKey: 80, errKey: 20}, 10*time.Second)
	if v := Health(); v.Status != HealthUnhealthy {
		t.Errorf("20%% errors: verdict = %s, want unhealthy", v.Status)
	}

	// No traffic in the window → ok.
	Rates.Reset()
	if v := Health(); v.Status != HealthOK {
		t.Errorf("idle error-rate verdict = %s, want ok", v.Status)
	}
}

// TestHealthWorstCheckWins combines a degraded latency check with an
// unhealthy error-rate check and expects the worst to set the verdict.
func TestHealthWorstCheckWins(t *testing.T) {
	ResetForTest()
	resetHealth(t)
	SetHealthConfig(HealthConfig{
		LatencyFamily: "test.health.combo",
		LatencyP99Max: time.Millisecond,
		ErrorRateMax:  0.05,
	})
	t.Cleanup(Rates.Reset)
	h := GetOrNewHistogram("test.health.combo", "")
	for i := 0; i < 100; i++ {
		h.Record((1500 * time.Microsecond).Nanoseconds()) // degraded
	}
	okKey := "server.requests_total" + labelSep + `code="200",endpoint="knn"`
	errKey := "server.requests_total" + labelSep + `code="500",endpoint="knn"`
	Rates.Tick(Snap{okKey: 0, errKey: 0}, 0)
	Rates.Tick(Snap{okKey: 80, errKey: 20}, 10*time.Second) // 0.2 > 2*0.05 → unhealthy
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
