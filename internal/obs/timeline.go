package obs

import (
	"sync"
	"time"
)

// The timeline ring: a fixed-size in-process ring of periodic snapshots,
// each pairing the windowed histogram quantiles with the counter rates of
// the same span, the runtime sample and the current gauges. One background
// ticker drives the whole time dimension:
//
//	at start:     push a baseline reading
//	every period: sample the runtime, publish hyperdom_runtime_* gauges
//	              take a reading; window = reading − oldest retained one
//	              append a TimelineSnapshot of that window to the ring
//	              retain the reading (window.go)
//
// The first snapshot — one period after start — covers exactly that period,
// so a family that recorded in it already carries non-null quantiles.
// /debug/timeline serves the ring oldest-first as JSON.

// FamilyWindow is one histogram family's windowed reading inside a
// timeline snapshot: the merged-across-labels sample count and quantiles
// over the window. Quantile fields are nil (JSON null) when the window is
// empty — a scraper can tell "no traffic" from "zero latency".
type FamilyWindow struct {
	Count uint64   `json:"count"`
	P50   *float64 `json:"p50"`
	P90   *float64 `json:"p90"`
	P99   *float64 `json:"p99"`
	P999  *float64 `json:"p999"`
}

// familyWindowOf summarizes one family of a window.
func familyWindowOf(s HistSnap) FamilyWindow {
	fw := FamilyWindow{Count: s.Count}
	if s.Count == 0 {
		return fw
	}
	q := func(p float64) *float64 { v := s.Quantile(p); return &v }
	fw.P50, fw.P90, fw.P99, fw.P999 = q(0.50), q(0.90), q(0.99), q(0.999)
	return fw
}

// TimelineSnapshot is one periodic reading of the whole process: windowed
// quantiles per histogram family, windowed per-second counter rates, the
// runtime sample and the gauges, stamped with the wall clock so entries
// correlate with access logs and the Slow ring's views.
type TimelineSnapshot struct {
	WhenUnixNs int64  `json:"when_unix_ns"`
	When       string `json:"when"` // RFC3339Nano, for humans and log grep
	// WindowNs is the wall span the windowed quantiles and rates cover —
	// grows toward WinSlots×period as the readings ring warms up.
	WindowNs    int64                   `json:"window_ns"`
	Quantiles   map[string]FamilyWindow `json:"windowed_quantiles"`
	RatesPerSec map[string]float64      `json:"rates_per_sec"`
	Runtime     RuntimeSample           `json:"runtime"`
	Gauges      map[string]float64      `json:"gauges"`
}

// TimelineSlots is the capacity of the snapshot ring: one hour of history
// at the default 10s period.
const TimelineSlots = 360

// DefaultTimelinePeriod is the tick cadence when StartTimeline is given
// period ≤ 0. WinSlots readings at 10s give the nominal one-minute windows
// of the _1m metric families.
const DefaultTimelinePeriod = 10 * time.Second

// timeline is the running collector: the snapshot ring (oldest first) plus
// the ticker goroutine's lifecycle.
var timeline struct {
	mu   sync.Mutex
	ring []*TimelineSnapshot
	stop chan struct{}
	done chan struct{}
}

// StartTimeline starts the periodic collector: it takes the baseline reading
// now and every period captures a TimelineSnapshot into the ring. period ≤ 0
// selects DefaultTimelinePeriod. A second call replaces the running
// collector: the ring restarts empty and windows restart from a fresh
// baseline. Stop with StopTimeline.
func StartTimeline(period time.Duration) {
	if period <= 0 {
		period = DefaultTimelinePeriod
	}
	StopTimeline()
	stop := make(chan struct{})
	done := make(chan struct{})
	timeline.mu.Lock()
	timeline.ring = nil
	timeline.stop, timeline.done = stop, done
	timeline.mu.Unlock()
	pushReading(takeReading())

	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				TimelineTick()
			}
		}
	}()
}

// StopTimeline stops the collector goroutine and drops the window readings
// (nothing ticks, so nothing bounds a window any more), keeping the snapshot
// ring readable. Safe to call when the timeline is not running.
func StopTimeline() {
	timeline.mu.Lock()
	stop, done := timeline.stop, timeline.done
	timeline.stop, timeline.done = nil, nil
	timeline.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	clearReadings()
}

// TimelineTick performs one collection step by hand: snapshot the window
// that ends now, then retain the reading it ended on. The running collector
// calls it on its cadence; tests (and callers embedding their own
// scheduler) may call it directly — with no reading retained yet the
// snapshot has no window and the tick serves as the baseline.
func TimelineTick() {
	rs := SampleRuntime()
	PublishRuntimeGauges(rs)
	now := takeReading()
	w := windowOf(now)
	pushReading(now)

	snap := &TimelineSnapshot{
		WhenUnixNs:  now.when.UnixNano(),
		When:        now.when.Format(time.RFC3339Nano),
		WindowNs:    w.span.Nanoseconds(),
		Quantiles:   make(map[string]FamilyWindow, len(w.families)),
		RatesPerSec: w.rates,
		Runtime:     rs,
		Gauges:      gaugeSnapshot(),
	}
	for name, f := range w.families {
		snap.Quantiles[name] = familyWindowOf(f)
	}

	timeline.mu.Lock()
	timeline.ring = pushBounded(timeline.ring, snap, TimelineSlots)
	timeline.mu.Unlock()
}

// TimelineSnapshots returns the retained snapshots, oldest first.
func TimelineSnapshots() []*TimelineSnapshot {
	timeline.mu.Lock()
	defer timeline.mu.Unlock()
	return append([]*TimelineSnapshot{}, timeline.ring...)
}
