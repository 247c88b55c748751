package obs

import (
	"math"
	"sync/atomic"
)

// gauges is the gauge table (table.go): slow-moving facts a counter cannot
// express. An entry is either stored — a last-write-wins float64 (build
// info, readiness, corpus sizes) — or a callback evaluated at read time
// (queue depths, in-flight counts). Registration takes the write lock — it
// happens at startup or config changes, never on a query path.
var gauges = table[gauge]{m: make(map[string]*gauge)}

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
	gauges.mu.Lock()
	g := gauges.m[key]
	if g == nil || g.f != nil {
		g = &gauge{}
		gauges.m[key] = g
	}
	gauges.mu.Unlock()
	g.bits.Store(math.Float64bits(v))
}

// GaugeValue returns the gauge registered under (name, labels) and whether
// it exists. Callback gauges (RegisterGaugeFunc) are evaluated on the spot.
func GaugeValue(name, labels string) (float64, bool) {
	g := gauges.lookup(labeledKey(name, labels))
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
// block: it runs inline in /metrics scrapes.
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

// gaugeSnapshot reads every gauge by key. Callbacks run after the table
// lock is released.
func gaugeSnapshot() map[string]float64 {
	byKey := gauges.family("")
	vals := make(map[string]float64, len(byKey))
	for key, g := range byKey {
		vals[key] = g.value()
	}
	return vals
}
