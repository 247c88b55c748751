package obs

import (
	"maps"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled serving-level metrics (ISSUE 8). The counter registry's names are
// flat strings; serving metrics need Prometheus label pairs (status code,
// endpoint) without giving the hot path a map-of-maps. Both needs are met
// by encoding the label set into the registry key — "name|pairs" — and
// teaching the exposition writer to split it back out. Call sites resolve
// the *Counter once per distinct label combination (the status-code ×
// endpoint product is tiny) and pay the usual single atomic add after that.

// labelSep joins a metric name and its label pairs inside the counter
// registry. '|' cannot appear in a Prometheus metric name, so splitting on
// the first occurrence is unambiguous.
const labelSep = "|"

// GetOrNewLabeled returns the counter registered under name with the given
// constant Prometheus label pairs (e.g. `code="200",endpoint="knn"`),
// creating it if needed. Counters sharing a name form one labeled family in
// the /metrics exposition; keep the pair order consistent per family so
// each combination resolves to a single counter.
func GetOrNewLabeled(name, labels string) *Counter {
	return GetOrNew(labeledKey(name, labels))
}

// labeledKey is the registry key of (name, labels), for counters and gauges
// alike.
func labeledKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + labelSep + labels
}

// splitLabeled splits a registry key into its metric name and label pairs.
func splitLabeled(key string) (name, labels string) {
	if i := strings.Index(key, labelSep); i >= 0 {
		return key[:i], key[i+len(labelSep):]
	}
	return key, ""
}

// gauges is the process-wide labeled gauge table: slow-moving facts a
// counter cannot express. An entry is either stored — a last-write-wins
// float64 (build info, readiness, corpus sizes) — or a callback evaluated at
// read time (queue depths, in-flight counts). Registration takes the write
// lock — it happens at startup or config changes, never on a query path.
var gauges = struct {
	mu sync.RWMutex
	m  map[string]*gauge
}{m: make(map[string]*gauge)}

type gauge struct {
	f    func() float64 // nil for a stored gauge, whose value is in bits
	bits atomic.Uint64
}

func (g *gauge) value() float64 {
	if g.f != nil {
		return g.f()
	}
	return math.Float64frombits(g.bits.Load())
}

// SetGauge sets the gauge registered under name and constant label pairs
// (e.g. `version="v1.2",go_version="go1.22"`; empty for none) to v,
// creating it on first use. Gauges appear in /metrics as TYPE gauge with
// the usual hyperdom_ naming. A stored gauge takes its key over from a
// callback registered there.
func SetGauge(name, labels string, v float64) {
	key := labeledKey(name, labels)
	gauges.mu.RLock()
	g := gauges.m[key]
	gauges.mu.RUnlock()
	if g == nil || g.f != nil {
		gauges.mu.Lock()
		if g = gauges.m[key]; g == nil || g.f != nil {
			g = &gauge{}
			gauges.m[key] = g
		}
		gauges.mu.Unlock()
	}
	g.bits.Store(math.Float64bits(v))
}

// GaugeValue returns the gauge registered under (name, labels) and whether
// it exists. Callback gauges (RegisterGaugeFunc) are evaluated on the spot.
func GaugeValue(name, labels string) (float64, bool) {
	gauges.mu.RLock()
	g := gauges.m[labeledKey(name, labels)]
	gauges.mu.RUnlock()
	if g == nil {
		return 0, false
	}
	return g.value(), true
}

// RegisterGaugeFunc registers f as a callback gauge under (name, labels),
// replacing any previous callback under the same key — subsystems that
// rebuild (a re-created shard index reusing its collection label) get
// last-writer-wins semantics — but not a stored gauge, which keeps the key.
// The returned unregister removes exactly this registration and is safe to
// call after a replacement. f must be safe for concurrent use and must not
// block: it runs inline in /metrics scrapes and timeline ticks.
func RegisterGaugeFunc(name, labels string, f func() float64) (unregister func()) {
	key := labeledKey(name, labels)
	g := &gauge{f: f}
	gauges.mu.Lock()
	if old := gauges.m[key]; old == nil || old.f != nil {
		gauges.m[key] = g
	}
	gauges.mu.Unlock()
	return func() {
		gauges.mu.Lock()
		if gauges.m[key] == g {
			delete(gauges.m, key)
		}
		gauges.mu.Unlock()
	}
}

// gaugeSnapshot returns every gauge as (key, value) pairs in exposition
// order. Callbacks run after the table lock is released.
func gaugeSnapshot() (keys []string, vals []float64) {
	gauges.mu.RLock()
	byKey := maps.Clone(gauges.m)
	gauges.mu.RUnlock()
	keys = labeledKeys(byKey)
	vals = make([]float64, len(keys))
	for i, key := range keys {
		vals[i] = byKey[key].value()
	}
	return keys, vals
}
