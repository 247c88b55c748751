package obs

import (
	"testing"
	"time"
)

// TestTimelineTickCapture drives one manual collection step and checks the
// acceptance bar of ISSUE 9: a family that recorded samples shows non-null
// windowed quantiles in the very first snapshot (its window reaches back to
// the baseline), the runtime sample is live, and gauges ride along.
func TestTimelineTickCapture(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.timeline.lat", "")
	for i := 0; i < 200; i++ {
		h.Record(int64(i) * 1000)
	}
	GetOrNew("test.timeline.hits").Add(30)
	SetGauge("test.timeline.gauge", "", 42)

	TimelineTick()

	snaps := TimelineSnapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots after one tick, want 1", len(snaps))
	}
	s := snaps[0]
	if s.WhenUnixNs == 0 || s.When == "" {
		t.Error("snapshot missing wall-clock stamp")
	}
	if _, err := time.Parse(time.RFC3339Nano, s.When); err != nil {
		t.Errorf("When %q is not RFC3339Nano: %v", s.When, err)
	}
	fw, ok := s.Quantiles["test.timeline.lat"]
	if !ok {
		t.Fatalf("snapshot has no windowed quantiles for the recorded family; got %v", s.Quantiles)
	}
	if fw.Count != 200 {
		t.Errorf("windowed Count = %d, want 200", fw.Count)
	}
	if fw.P99 == nil || fw.P50 == nil {
		t.Fatal("windowed quantiles are null in the first snapshot (its window must reach the baseline)")
	}
	if *fw.P99 < *fw.P50 {
		t.Errorf("p99 %v < p50 %v", *fw.P99, *fw.P50)
	}
	if s.Runtime.Goroutines <= 0 || s.Runtime.GOMAXPROCS <= 0 {
		t.Errorf("runtime sample not live: %+v", s.Runtime)
	}
	if got := s.Gauges["test.timeline.gauge"]; got != 42 {
		t.Errorf("snapshot gauge = %v, want 42", got)
	}

	// An idle family yields null quantiles, not zeros.
	GetOrNewHistogram("test.timeline.idle", "")
	startWindow(t)
	TimelineTick()
	s = TimelineSnapshots()[0]
	if fw := s.Quantiles["test.timeline.idle"]; fw.Count != 0 || fw.P99 != nil {
		t.Errorf("idle family window = %+v, want count 0 and null quantiles", fw)
	}
}

// TestTimelineRates checks a tick carries windowed per-second counter
// rates derived from the difference to the retained reading — here a
// hand-driven first tick standing in for the baseline.
func TestTimelineRates(t *testing.T) {
	ResetForTest()
	t.Cleanup(clearReadings)
	TimelineTick() // no reading retained yet: this one is the baseline
	if s := TimelineSnapshots(); s[len(s)-1].WindowNs != 0 || s[len(s)-1].RatesPerSec != nil {
		t.Errorf("baseline tick reports a window: %+v", s[len(s)-1])
	}
	GetOrNew("test.timeline.rate").Add(500)
	time.Sleep(5 * time.Millisecond)
	TimelineTick()
	snaps := TimelineSnapshots()
	s := snaps[len(snaps)-1]
	rate, ok := s.RatesPerSec["test.timeline.rate"]
	if !ok {
		t.Fatalf("no windowed rate for the moved counter; got %v", s.RatesPerSec)
	}
	if rate <= 0 {
		t.Errorf("rate = %v, want > 0", rate)
	}
	if s.WindowNs <= 0 {
		t.Errorf("WindowNs = %d, want > 0", s.WindowNs)
	}
}

// TestTimelineRingWrap fills the ring past capacity and checks the
// oldest-first read order and the fixed size.
func TestTimelineRingWrap(t *testing.T) {
	startWindow(t) // ticker too slow to interfere
	for i := 0; i < TimelineSlots+2; i++ {
		TimelineTick()
	}
	snaps := TimelineSnapshots()
	if len(snaps) != TimelineSlots {
		t.Fatalf("ring holds %d snapshots, want %d", len(snaps), TimelineSlots)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].WhenUnixNs < snaps[i-1].WhenUnixNs {
			t.Errorf("snapshots out of order: [%d]=%d before [%d]=%d",
				i, snaps[i].WhenUnixNs, i-1, snaps[i-1].WhenUnixNs)
		}
	}
}

// TestStartStopTimeline checks the background collector ticks on its own
// cadence and that Stop leaves the ring readable.
func TestStartStopTimeline(t *testing.T) {
	ResetForTest()
	StartTimeline(5 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(TimelineSnapshots()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	StopTimeline()
	n := len(TimelineSnapshots())
	if n == 0 {
		t.Fatal("background collector produced no snapshots")
	}
	time.Sleep(15 * time.Millisecond)
	if got := len(TimelineSnapshots()); got != n {
		t.Errorf("ring advanced after StopTimeline: %d -> %d", n, got)
	}
	StopTimeline() // idempotent
}
