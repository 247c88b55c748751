package obs

import (
	"testing"
	"time"
)

// TestTimelineTickCapture drives one manual tick and checks what it leaves
// behind: a family that recorded samples since the base reading shows
// non-null windowed quantiles (the window reaches back to the base), an idle
// family shows none, and the runtime gauges are published.
func TestTimelineTickCapture(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.timeline.lat", "")
	for i := 0; i < 200; i++ {
		h.Record(int64(i) * 1000)
	}
	GetOrNewHistogram("test.timeline.idle", "")

	TimelineTick()

	if len(readings.ring) != 2 {
		t.Fatalf("%d readings retained after the base and one tick, want 2", len(readings.ring))
	}
	w := windowNow()
	fw, ok := w.families["test.timeline.lat"]
	if !ok {
		t.Fatalf("window has no entry for the recorded family; got %v", w.families)
	}
	if fw.Count != 200 {
		t.Errorf("windowed Count = %d, want 200", fw.Count)
	}
	if p50, p99 := fw.Quantile(0.5), fw.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Errorf("windowed p50 %v, p99 %v: want 0 < p50 ≤ p99", p50, p99)
	}
	if got := w.families["test.timeline.idle"].Count; got != 0 {
		t.Errorf("idle family windowed Count = %d, want 0", got)
	}
	if v, _ := GaugeValue("runtime.goroutines", ""); v <= 0 {
		t.Errorf("runtime.goroutines = %v after a tick, want > 0", v)
	}
}

// TestTimelineRates checks a tick's window carries per-second counter rates
// derived from the difference to the base reading — here a hand-driven
// first tick.
func TestTimelineRates(t *testing.T) {
	ResetForTest()
	t.Cleanup(clearReadings)
	TimelineTick() // no reading retained yet: this one is the base
	if w := windowNow(); w.rates != nil {
		t.Errorf("rates at the base reading = %v, want none", w.rates)
	}
	GetOrNew("test.timeline.rate").Add(500)
	time.Sleep(5 * time.Millisecond)
	TimelineTick()
	w := windowNow()
	rate, ok := w.rates["test.timeline.rate"]
	if !ok {
		t.Fatalf("no windowed rate for the moved counter; got %v", w.rates)
	}
	if rate <= 0 {
		t.Errorf("rate = %v, want > 0", rate)
	}
	if w.span <= 0 {
		t.Errorf("window span = %v, want > 0", w.span)
	}
}

// TestTimelineRingWrap ticks past the reading ring's capacity and checks
// the fixed size and the oldest-first order.
func TestTimelineRingWrap(t *testing.T) {
	startWindow(t)
	for i := 0; i < WinSlots+2; i++ {
		TimelineTick()
	}
	if len(readings.ring) != WinSlots {
		t.Fatalf("ring holds %d readings, want %d", len(readings.ring), WinSlots)
	}
	for i := 1; i < len(readings.ring); i++ {
		if readings.ring[i].when.Before(readings.ring[i-1].when) {
			t.Errorf("readings out of order: [%d]=%v before [%d]=%v",
				i, readings.ring[i].when, i-1, readings.ring[i-1].when)
		}
	}
}

// TestStartStopTimeline checks the ticker ticks at start — so the window
// and the runtime gauges exist from the first scrape — and then on its own
// cadence, and that Stop ends both the ticks and the window.
func TestStartStopTimeline(t *testing.T) {
	ResetForTest()
	readingsHeld := func() int {
		readings.mu.Lock()
		defer readings.mu.Unlock()
		return len(readings.ring)
	}
	startTimeline(5 * time.Millisecond)
	if v, _ := GaugeValue("runtime.goroutines", ""); v <= 0 {
		t.Errorf("runtime.goroutines = %v right after start, want > 0", v)
	}
	if readingsHeld() == 0 {
		t.Error("no base reading right after start")
	}
	deadline := time.Now().Add(2 * time.Second)
	for readingsHeld() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if readingsHeld() < 2 {
		t.Fatal("the ticker did not tick on its own")
	}
	StopTimeline()
	if n := readingsHeld(); n != 0 {
		t.Fatalf("%d readings retained after StopTimeline, want 0", n)
	}
	time.Sleep(15 * time.Millisecond)
	if n := readingsHeld(); n != 0 {
		t.Errorf("the ticker kept ticking after StopTimeline: %d readings", n)
	}
	StopTimeline() // idempotent
}
