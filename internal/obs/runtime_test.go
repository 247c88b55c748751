package obs

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// TestSampleRuntime checks the runtime/metrics sample reads live values.
func TestSampleRuntime(t *testing.T) {
	rs := SampleRuntime()
	if rs.Goroutines <= 0 {
		t.Errorf("Goroutines = %d, want > 0", rs.Goroutines)
	}
	if rs.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", rs.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if rs.HeapBytes == 0 {
		t.Errorf("HeapBytes = %d, want > 0", rs.HeapBytes)
	}
	if rs.HeapObjects == 0 {
		t.Errorf("HeapObjects = %d, want > 0", rs.HeapObjects)
	}
	// Force a GC so cycle counts and pause quantiles have data, then
	// re-sample: the counters must be monotone and the quantiles
	// non-negative.
	runtime.GC()
	rs2 := SampleRuntime()
	if rs2.GCCycles < rs.GCCycles || rs2.GCCycles == 0 {
		t.Errorf("GCCycles went %d -> %d, want monotone and > 0 after runtime.GC", rs.GCCycles, rs2.GCCycles)
	}
	if rs2.GCPauseP99Ns < 0 || rs2.SchedLatP99Ns < 0 {
		t.Errorf("negative quantiles: %+v", rs2)
	}
}

// TestPublishRuntimeGauges checks the hyperdom_runtime_* gauges appear in
// the gauge table after a publish.
func TestPublishRuntimeGauges(t *testing.T) {
	PublishRuntimeGauges(SampleRuntime())
	for _, name := range []string{
		"runtime.goroutines", "runtime.gomaxprocs", "runtime.heap_bytes",
		"runtime.heap_objects", "runtime.gc_cycles", "runtime.gc_pause_p99_ns",
		"runtime.sched_latency_p99_ns",
	} {
		if _, ok := GaugeValue(name, ""); !ok {
			t.Errorf("gauge %s not published", name)
		}
	}
	if v, _ := GaugeValue("runtime.goroutines", ""); v <= 0 {
		t.Errorf("runtime.goroutines = %v, want > 0", v)
	}
}

// TestQuantileReadersAgree: the registry's and the runtime collector's
// quantile readers walk one rank through rankBucket, so over the same counts
// — with the runtime histogram's bucket bounds set to histLower — they pick
// the same bucket for every q, and both read 0 when the counts are empty.
func TestQuantileReadersAgree(t *testing.T) {
	counts := make([]uint64, histBuckets)
	for i, c := range map[int]uint64{0: 2, 5: 1, 40: 7, 41: 3, 200: 5, 499: 1, histBuckets - 1: 1} {
		counts[i] = c
	}
	bounds := make([]float64, histBuckets+1)
	for i := range bounds {
		bounds[i] = float64(histLower(min(i, histBuckets-1)))
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	snap := HistSnap{Counts: counts, Count: total}
	rt := &metrics.Float64Histogram{Counts: counts, Buckets: bounds}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := float64HistQuantile(rt, q), snap.Quantile(q); got != want {
			t.Errorf("q=%v: runtime reader %v, registry reader %v", q, got, want)
		}
	}
	empty := make([]uint64, histBuckets)
	for _, q := range []float64{0, 0.5, 1} {
		if got := (HistSnap{Counts: empty}).Quantile(q); got != 0 {
			t.Errorf("empty registry reader q=%v: %v, want 0", q, got)
		}
		if got := float64HistQuantile(&metrics.Float64Histogram{Counts: empty, Buckets: bounds}, q); got != 0 {
			t.Errorf("empty runtime reader q=%v: %v, want 0", q, got)
		}
	}
}
