package obs

import (
	"strings"
	"sync"
	"time"
)

// The /debug/health verdict: a structured ok/degraded/unhealthy reading
// computed from the window (window.go) — its p99 latency and its error
// rate — against operator-set thresholds. Each enabled check compares its
// current value to its threshold: under it the check is ok, over it
// degraded, over twice it unhealthy; the verdict is the worst check, with
// one reason string per non-ok check. A check with no data (no traffic in
// the window, or no window because no timeline ticks) is ok — an idle
// server is a healthy server.

// The two families the verdict reads: the histogram family whose windowed
// p99 (merged across labels) the latency check grades, and the labeled
// counter family the error check takes its 5xx share of, matching instances
// by a code="5.." label. Both are the serving layer's.
const (
	healthLatencyFamily = "server.request_latency"
	healthErrorFamily   = "server.requests_total"
)

// HealthConfig sets the thresholds the verdict is computed from. The zero
// value disables every check, so Health() reports ok until a server opts
// in (SetHealthConfig).
type HealthConfig struct {
	// LatencyP99Max is the windowed-p99 degraded threshold; ≤ 0 disables.
	LatencyP99Max time.Duration
	// ErrorRateMax is the degraded threshold for the windowed ratio of 5xx
	// responses; ≤ 0 disables.
	ErrorRateMax float64
}

var healthCfg struct {
	mu  sync.RWMutex
	cfg HealthConfig
}

// SetHealthConfig installs the thresholds /debug/health (and the server's
// /readyz degraded report) computes against.
func SetHealthConfig(cfg HealthConfig) {
	healthCfg.mu.Lock()
	healthCfg.cfg = cfg
	healthCfg.mu.Unlock()
}

// Health statuses, ordered by severity.
const (
	HealthOK        = "ok"
	HealthDegraded  = "degraded"
	HealthUnhealthy = "unhealthy"
)

// HealthCheck is one threshold comparison inside a verdict.
type HealthCheck struct {
	Name      string  `json:"name"`
	Status    string  `json:"status"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Detail spells the comparison out for humans ("windowed p99 12ms,
	// threshold 250ms over 60s window").
	Detail string `json:"detail"`
}

// HealthVerdict is the structured /debug/health answer.
type HealthVerdict struct {
	Status     string        `json:"status"`
	WhenUnixNs int64         `json:"when_unix_ns"`
	When       string        `json:"when"`
	Reasons    []string      `json:"reasons"`
	Checks     []HealthCheck `json:"checks"`
}

// grade maps a value against its degraded threshold: ok under it,
// degraded over it, unhealthy over twice it.
func grade(v, threshold float64) string {
	switch {
	case v > 2*threshold:
		return HealthUnhealthy
	case v > threshold:
		return HealthDegraded
	}
	return HealthOK
}

func worse(a, b string) string {
	rank := map[string]int{HealthOK: 0, HealthDegraded: 1, HealthUnhealthy: 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// Health computes the current verdict from the installed thresholds and
// the window. It reads only what it grades — the latency family and the
// error counter family — since /readyz asks on every probe. Always safe to
// call; with no configuration (or no enabled checks) it reports ok with an
// empty check list.
func Health() HealthVerdict {
	healthCfg.mu.RLock()
	cfg := healthCfg.cfg
	healthCfg.mu.RUnlock()
	now := reading{when: time.Now()}
	v := HealthVerdict{
		Status:     HealthOK,
		WhenUnixNs: now.when.UnixNano(),
		When:       now.when.Format(time.RFC3339Nano),
		Reasons:    []string{},
		Checks:     []HealthCheck{},
	}
	addCheck := func(c HealthCheck) {
		v.Checks = append(v.Checks, c)
		v.Status = worse(v.Status, c.Status)
		if c.Status != HealthOK {
			v.Reasons = append(v.Reasons, c.Detail)
		}
	}
	latency := cfg.LatencyP99Max > 0
	if latency {
		now.add(MergedHist(healthLatencyFamily))
	}
	if cfg.ErrorRateMax > 0 {
		now.counters = snapshotFamily(healthErrorFamily)
	}
	w := windowOf(now)

	if latency {
		c := HealthCheck{
			Name:      "windowed_p99_latency",
			Status:    HealthOK,
			Threshold: float64(cfg.LatencyP99Max.Nanoseconds()),
		}
		if snap := w.families[healthLatencyFamily]; snap.Count > 0 {
			c.Value = snap.Quantile(0.99)
			c.Status = grade(c.Value, c.Threshold)
			c.Detail = healthLatencyFamily + " windowed p99 " +
				time.Duration(c.Value).String() + ", threshold " + cfg.LatencyP99Max.String()
		} else {
			c.Detail = healthLatencyFamily + ": no samples in window"
		}
		addCheck(c)
	}

	if cfg.ErrorRateMax > 0 {
		var errRate, totalRate float64
		for key, rate := range w.rates {
			totalRate += rate
			if _, labels := splitLabeled(key); strings.Contains(labels, `code="5`) {
				errRate += rate
			}
		}
		c := HealthCheck{Name: "windowed_error_rate", Status: HealthOK, Threshold: cfg.ErrorRateMax}
		if totalRate > 0 {
			c.Value = errRate / totalRate
			c.Status = grade(c.Value, c.Threshold)
			c.Detail = "5xx fraction of " + healthErrorFamily + " over window"
		} else {
			c.Detail = healthErrorFamily + ": no requests in window"
		}
		addCheck(c)
	}

	return v
}
