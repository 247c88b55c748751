package obs

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// Runtime collector (ISSUE 9): a point-in-time sample of the Go runtime's
// own health — heap footprint, GC pauses, scheduler pressure — read from
// runtime/metrics. Every timeline tick takes one sample and publishes it as
// the hyperdom_runtime_* gauges, so an operator can correlate a windowed
// latency regression with a GC storm or a goroutine leak without attaching
// a profiler.

// runtimeMetricNames are the runtime/metrics keys the collector reads.
// All of them exist since Go 1.17; a missing or KindBad sample (an older
// or future runtime dropping a key) degrades to zero instead of failing.
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/objects:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/goroutines:goroutines",
	"/sched/latencies:seconds",
}

// runtimeSampleBuf reuses the metrics.Sample slice across ticks; the
// collector runs on one goroutine (the timeline ticker) plus ad-hoc test
// callers, so a mutex is plenty.
var runtimeSampleBuf struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

// RuntimeSample is one reading of the runtime collector. Pause and
// scheduling-latency quantiles come from the runtime's own cumulative
// float64 histograms, so they cover the process lifetime (the runtime does
// not expose windowed pause data); everything else is instantaneous.
type RuntimeSample struct {
	Goroutines    int
	GOMAXPROCS    int
	HeapBytes     uint64
	HeapObjects   uint64
	GCCycles      uint64
	GCPauseP99Ns  float64
	SchedLatP99Ns float64
}

// SampleRuntime reads one RuntimeSample from runtime/metrics.
func SampleRuntime() RuntimeSample {
	runtimeSampleBuf.mu.Lock()
	defer runtimeSampleBuf.mu.Unlock()
	if runtimeSampleBuf.samples == nil {
		runtimeSampleBuf.samples = make([]metrics.Sample, len(runtimeMetricNames))
		for i, name := range runtimeMetricNames {
			runtimeSampleBuf.samples[i].Name = name
		}
	}
	metrics.Read(runtimeSampleBuf.samples)

	var rs RuntimeSample
	rs.GOMAXPROCS = runtime.GOMAXPROCS(0)
	for _, s := range runtimeSampleBuf.samples {
		switch s.Name {
		case "/memory/classes/heap/objects:bytes":
			rs.HeapBytes = sampleUint(s)
		case "/gc/heap/objects:objects":
			rs.HeapObjects = sampleUint(s)
		case "/gc/cycles/total:gc-cycles":
			rs.GCCycles = sampleUint(s)
		case "/sched/goroutines:goroutines":
			rs.Goroutines = int(sampleUint(s))
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				rs.GCPauseP99Ns = float64HistQuantile(s.Value.Float64Histogram(), 0.99) * 1e9
			}
		case "/sched/latencies:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				rs.SchedLatP99Ns = float64HistQuantile(s.Value.Float64Histogram(), 0.99) * 1e9
			}
		}
	}
	return rs
}

// sampleUint reads a KindUint64 sample, zero otherwise.
func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// float64HistQuantile extracts the q-quantile from a runtime/metrics
// Float64Histogram, reporting the lower bound of the bucket holding the
// sample of that rank (matching HistSnap.Quantile's never-overshoot
// contract). Empty histograms return 0; -Inf lower bounds clamp to 0.
func float64HistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	i := rankBucket(h.Counts, total, q)
	if i < 0 {
		return 0
	}
	return max(h.Buckets[i], 0)
}

// PublishRuntimeGauges stores rs as hyperdom_runtime_* gauges so /metrics
// carries the latest runtime reading between timeline ticks.
func PublishRuntimeGauges(rs RuntimeSample) {
	SetGauge("runtime.goroutines", "", float64(rs.Goroutines))
	SetGauge("runtime.gomaxprocs", "", float64(rs.GOMAXPROCS))
	SetGauge("runtime.heap_bytes", "", float64(rs.HeapBytes))
	SetGauge("runtime.heap_objects", "", float64(rs.HeapObjects))
	SetGauge("runtime.gc_cycles", "", float64(rs.GCCycles))
	SetGauge("runtime.gc_pause_p99_ns", "", rs.GCPauseP99Ns)
	SetGauge("runtime.sched_latency_p99_ns", "", rs.SchedLatP99Ns)
}
