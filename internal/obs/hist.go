package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histograms (ISSUE 3). A Histogram is an HDR-style log-linear
// bucket array over int64 nanosecond samples: values below 16ns land in
// exact unit buckets, and every power-of-two range above is subdivided
// into 16 linear sub-buckets, so the relative width of any bucket is at
// most 1/16 (6.25%). The bucket array is fixed at compile time — no
// resizing, no allocation, ever — and covers up to 2^42ns (~73 minutes);
// slower samples clamp into the last bucket.
//
// The record path is lock-free and allocation-free: one atomic add into a
// bucket and one into the running sum. Recorders of different latencies
// touch different cache lines (a bucket is 8 bytes of a 5 KB array);
// recorders of the same latency share one. Windowed views cost the record
// path nothing: they are differences of cumulative readings (window.go).
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits // linear sub-buckets per power of two
	histMaxTop     = 41               // highest bucketed power of two (2^42ns ≈ 73min)
	histBuckets    = histSubBuckets + (histMaxTop-histSubBits+1)*histSubBuckets
)

// histIndex maps a sample to its bucket.
func histIndex(v int64) int {
	if v < histSubBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	top := 63 - bits.LeadingZeros64(uint64(v))
	if top > histMaxTop {
		return histBuckets - 1
	}
	shift := top - histSubBits
	return (shift << histSubBits) + int(uint64(v)>>shift)
}

// histLower returns the inclusive lower bound of bucket i — the value
// quantile extraction reports, so estimates never exceed the true sample.
func histLower(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	shift := (i >> histSubBits) - 1
	return int64(i-(shift<<histSubBits)) << shift
}

// Histogram is a registered log-linear latency histogram. All methods are
// safe for concurrent use; Record never allocates and takes no locks.
// Construct with NewHistogram (or GetOrNewHistogram for runtime-derived
// names) so snapshots and the /metrics exposition can find it.
type Histogram struct {
	name   string
	labels string // Prometheus label pairs, e.g. `substrate="sstree",algo="DF"`; may be empty
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Name returns the registered histogram name.
func (h *Histogram) Name() string { return h.name }

// Labels returns the constant Prometheus label pairs, without braces.
func (h *Histogram) Labels() string { return h.labels }

// Record adds one sample (nanoseconds). Callers on gated hot paths check
// On() themselves — Record does not, so batch-level instrumentation that
// already paid for the gate is not charged twice.
func (h *Histogram) Record(v int64) {
	i := histIndex(v)
	h.counts[i].Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// reset zeroes the histogram. Not linearizable against concurrent recorders
// (a racing sample may survive or vanish); meant for ResetForTest.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// HistSnap is a point-in-time reading of a histogram: the buckets, total
// sample count and nanosecond sum. The zero value behaves as an empty
// histogram.
type HistSnap struct {
	Name   string
	Labels string
	Counts []uint64 // len histBuckets; bucket i counts samples in [histLower(i), histLower(i+1))
	Count  uint64
	Sum    uint64 // nanoseconds
}

// Snap takes a consistent-enough reading: each bucket load is atomic, but
// buckets may advance between loads, exactly like Snapshot over counters.
func (h *Histogram) Snap() HistSnap {
	s := HistSnap{Name: h.name, Labels: h.labels, Counts: make([]uint64, histBuckets), Sum: h.sum.Load()}
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// merge folds o's buckets into s (for combining labeled instances of one
// metric). Both sides must be full-length snapshots or zero values.
func (s *HistSnap) merge(o HistSnap) {
	if s.Counts == nil {
		s.Counts = make([]uint64, histBuckets)
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds: the lower
// bound of the bucket holding the sample of that rank, so the estimate
// never exceeds the true value and undershoots by at most one bucket width
// (≤ 1/16 relative for samples ≥ 16ns). An empty histogram returns 0 for
// every q — never NaN, never a panic.
func (s HistSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return float64(histLower(i))
		}
	}
	return float64(histLower(histBuckets - 1))
}

// Mean returns the mean sample in nanoseconds, or 0 when empty.
func (s HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// hists is the histogram table (table.go).
var hists = table[Histogram]{m: make(map[string]*Histogram)}

func newHistogram(key string) *Histogram {
	name, labels := splitLabeled(key)
	return &Histogram{name: name, labels: labels}
}

// NewHistogram registers and returns a histogram under the given name and
// constant Prometheus label pairs (e.g. `substrate="sstree",algo="DF"`;
// empty for none). Instances sharing a name form one labeled metric family
// in the /metrics exposition. Panics on a duplicate (name, labels) pair.
func NewHistogram(name, labels string) *Histogram {
	return hists.getOrNew(labeledKey(name, labels), newHistogram, true)
}

// GetOrNewHistogram returns the histogram registered under (name, labels),
// creating it if needed — for names or labels derived at runtime.
func GetOrNewHistogram(name, labels string) *Histogram {
	return hists.getOrNew(labeledKey(name, labels), newHistogram, false)
}

// Histograms returns every registered histogram, sorted by (name, labels)
// so exposition output is stable.
func Histograms() []*Histogram {
	byKey := hists.family("")
	out := make([]*Histogram, 0, len(byKey))
	for _, key := range labeledKeys(byKey) {
		out = append(out, byKey[key])
	}
	return out
}

// MergedHist merges every labeled instance registered under name into one
// snapshot — the whole-metric view quantile summaries are computed from.
// An unknown name yields an empty (all-zero) snapshot.
func MergedHist(name string) HistSnap {
	merged := HistSnap{Name: name, Counts: make([]uint64, histBuckets)}
	for _, h := range hists.family(name) {
		merged.merge(h.Snap())
	}
	return merged
}

// Stopwatch measures one latency sample from time.Now deltas. The zero
// value is a stopped watch: StartTimer returns one when instrumentation is
// disabled, and Stop on it records nothing, so call sites need no second
// gate check.
type Stopwatch struct {
	t0 time.Time
}

// StartTimer starts a stopwatch, or returns a stopped one when the obs
// gate is off (no clock read).
func StartTimer() Stopwatch {
	if !On() {
		return Stopwatch{}
	}
	return Stopwatch{t0: time.Now()}
}

// Stop records the elapsed time into h (if non-nil) and returns it. On a
// stopped watch it records nothing and returns 0.
func (sw Stopwatch) Stop(h *Histogram) time.Duration {
	if sw.t0.IsZero() {
		return 0
	}
	d := time.Since(sw.t0)
	if h != nil {
		h.RecordDuration(d)
	}
	return d
}

// ResetForTest zeroes every registered counter and histogram and clears
// the Slow ring, preserving all registrations — so tests (and
// measurement harnesses like benchkernel) can assert absolute readings
// instead of diffing snapshots of monotonically growing globals. The
// retained window readings predate the zeroing and are dropped with it: a
// ticking timeline windows again from its next tick. It is not linearizable
// against concurrent recorders; quiesce the workload first.
func ResetForTest() {
	for _, c := range counters.family("") {
		c.v.Store(0)
	}
	for _, h := range hists.family("") {
		h.reset()
	}
	Slow.Reset()
	clearReadings()
	for _, g := range gauges.family("") {
		g.bits.Store(0)
	}
}
