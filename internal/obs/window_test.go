package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// startWindow zeroes the registry and opens a window with no ticker: the
// base reading is taken here and the test drives every tick by hand.
func startWindow(t *testing.T) {
	t.Helper()
	ResetForTest()
	TimelineTick()
	t.Cleanup(StopTimeline)
}

// windowNow is the window a scrape would see now.
func windowNow() window { return windowOf(takeReading()) }

// TestWindowQuantileAccuracy records a known sample set and checks the
// windowed quantiles against the exact order statistics under the same
// contract as the cumulative histogram: the estimate never exceeds the true
// value and sits within one bucket's relative width (1/16) below it.
func TestWindowQuantileAccuracy(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.win.accuracy", "")
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })

	snap := windowNow().families["test.win.accuracy"]
	if snap.Count != uint64(len(samples)) {
		t.Fatalf("window Count = %d, want %d", snap.Count, len(samples))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := snap.Quantile(q)
		idx := int(q * float64(len(samples)-1))
		want := float64(samples[idx])
		if got > want {
			t.Errorf("windowed q%.3f = %v exceeds exact order statistic %v", q, got, want)
		}
		if want > 16 && got < want*(1-1.0/16)-1 {
			t.Errorf("windowed q%.3f = %v more than one bucket below exact %v", q, got, want)
		}
	}

	// The windowed and cumulative views agree while every sample is younger
	// than the oldest reading.
	cum := h.Snap()
	if snap.Count != cum.Count || snap.Sum != cum.Sum {
		t.Errorf("window (count=%d sum=%d) disagrees with cumulative (count=%d sum=%d) before any sample expired",
			snap.Count, snap.Sum, cum.Count, cum.Sum)
	}
}

// TestWindowRotationExpiry pins the sliding-window semantics across ticks:
// samples stay visible for WinSlots-1 further ticks, expire on the
// WinSlots-th, and the cumulative histogram never forgets.
func TestWindowRotationExpiry(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.win.expiry", "")
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	count := func() uint64 { return windowNow().families["test.win.expiry"].Count }

	// The batch stays in the window while a reading that predates it is
	// still among the WinSlots retained ones...
	for r := 1; r < WinSlots; r++ {
		TimelineTick()
		if got := count(); got != 100 {
			t.Fatalf("after %d ticks window Count = %d, want 100", r, got)
		}
	}
	// ...and the WinSlots-th tick overwrites the last such reading.
	TimelineTick()
	if got := count(); got != 0 {
		t.Errorf("after %d ticks window Count = %d, want 0 (expired)", WinSlots, got)
	}
	if got := h.Snap().Count; got != 100 {
		t.Errorf("cumulative Count = %d after ticks, want 100", got)
	}

	// A second batch recorded after those ticks ages out on its own
	// schedule.
	for i := 0; i < 40; i++ {
		h.Record(2000)
	}
	TimelineTick()
	if got := count(); got != 40 {
		t.Errorf("fresh batch: window Count = %d after one tick, want 40", got)
	}
}

// TestWindowRotationPartialOverlap interleaves recording and ticking and
// checks the window always equals the sum of the batches younger than the
// oldest retained reading.
func TestWindowRotationPartialOverlap(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.win.overlap", "")
	// One batch of p+1 samples per period, WinSlots+2 periods.
	for p := 0; p < WinSlots+2; p++ {
		for i := 0; i <= p; i++ {
			h.Record(int64(1000 * (p + 1)))
		}
		TimelineTick()
		// After the tick the ring reaches back WinSlots-1 periods: the last
		// min(p+1, WinSlots-1) batches are inside the window.
		want := uint64(0)
		for b := p; b >= 0 && b > p-(WinSlots-1); b-- {
			want += uint64(b + 1)
		}
		if got := windowNow().families["test.win.overlap"].Count; got != want {
			t.Fatalf("period %d: window Count = %d, want %d", p, got, want)
		}
	}
}

// TestWindowConcurrentRecordRotate hammers the record path from several
// goroutines while another ticks continuously. Under -race this validates
// that readings are taken from live histograms without a lock; in any mode
// it checks what must survive a reading torn across concurrent records: the
// cumulative count is exact, and the window never exceeds what was recorded.
func TestWindowConcurrentRecordRotate(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.win.race", "")
	const (
		writers = 4
		perG    = 20000
	)
	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				TimelineTick()
			}
		}
	}()
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for i := 0; i < perG; i++ {
				h.Record(int64(i % 4096))
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	ticker.Wait()

	if got := h.Snap().Count; got != writers*perG {
		t.Errorf("cumulative Count = %d, want %d (ticking must never lose cumulative samples)", got, writers*perG)
	}
	if got := windowNow().families["test.win.race"].Count; got > writers*perG {
		t.Errorf("window Count = %d exceeds samples recorded %d", got, writers*perG)
	}
}

// TestWindowRecordAllocs locks the record path's zero-allocation guarantee
// with a window open over it, and the size the window no longer adds to
// every histogram: the bucket array, the sum and two strings.
func TestWindowRecordAllocs(t *testing.T) {
	if got := unsafe.Sizeof(Histogram{}); got > 5120 {
		t.Errorf("unsafe.Sizeof(Histogram{}) = %d, want ≤ 5120", got)
	}
	if raceEnabled {
		t.Skip("-race instrumentation allocates; alloc gate runs in the non-race matrix")
	}
	startWindow(t)
	h := GetOrNewHistogram("test.win.allocs", "")
	if allocs := testing.AllocsPerRun(100, func() { h.Record(12345) }); allocs != 0 {
		t.Errorf("windowed Record allocates %v per call, want 0", allocs)
	}
}

// TestMergedWindow checks a family's window merges its labeled instances
// and honors expiry.
func TestMergedWindow(t *testing.T) {
	startWindow(t)
	a := GetOrNewHistogram("test.win.family", `inst="a"`)
	b := GetOrNewHistogram("test.win.family", `inst="b"`)
	for i := 0; i < 10; i++ {
		a.Record(100)
	}
	if got := windowNow().families["test.win.family"].Count; got != 10 {
		t.Errorf("family window Count = %d, want 10", got)
	}
	if got := windowNow().families["test.win.nosuch"].Count; got != 0 {
		t.Errorf("unknown family window Count = %d, want 0", got)
	}
	// b records one tick later than a, so a's samples expire first.
	TimelineTick()
	for i := 0; i < 5; i++ {
		b.Record(200)
	}
	if got := windowNow().families["test.win.family"].Count; got != 15 {
		t.Errorf("family window Count = %d, want 15", got)
	}
	for r := 1; r < WinSlots; r++ {
		TimelineTick()
	}
	if got := windowNow().families["test.win.family"].Count; got != 5 {
		t.Errorf("after expiring a's samples family window Count = %d, want 5", got)
	}
}

// TestWindowRates drives the window with synthetic readings and pins the
// windowed-rate arithmetic, the baseline, and expiry.
func TestWindowRates(t *testing.T) {
	ResetForTest()
	t.Cleanup(clearReadings)
	t0 := time.Now()
	at := func(secs int, q uint64) reading {
		return reading{when: t0.Add(time.Duration(secs) * time.Second), counters: Snap{"q": q}}
	}
	if got := windowOf(at(0, 100)); got.rates != nil || got.span != 0 {
		t.Fatalf("window before any reading = %+v, want none", got)
	}
	// The first reading is only the baseline.
	pushReading(at(0, 100))
	if got := windowOf(at(0, 100)).rates; got != nil {
		t.Fatalf("rates at the baseline = %v, want nil", got)
	}
	// 50 increments over 10 seconds → 5/s.
	if got := windowOf(at(10, 150)).rates["q"]; got != 5 {
		t.Errorf("rate after one period = %v, want 5", got)
	}
	pushReading(at(10, 150))
	// 10 more over the next 10s → window rate (50+10)/20s = 3/s.
	w := windowOf(at(20, 160))
	if got := w.rates["q"]; got != 3 {
		t.Errorf("rate after two periods = %v, want 3", got)
	}
	if w.span != 20*time.Second {
		t.Errorf("Span = %v, want 20s", w.span)
	}
	// Idle ticks age the early increments out of the ring.
	for i := 0; i < WinSlots; i++ {
		pushReading(at(20+10*i, 160))
	}
	if got, ok := windowOf(at(90, 160)).rates["q"]; ok {
		t.Errorf("rate after an idle window = %v, want absent", got)
	}
	clearReadings()
	if got := windowOf(at(100, 170)); got.rates != nil || got.families != nil {
		t.Errorf("window after clearing the readings = %+v, want none", got)
	}
}

// TestWindowSurvivesReset drives reading → reset → record → window: a base
// reading that predates a ResetForTest must not turn into ~2⁶⁴ events, with
// the ring (ResetForTest drops it, so there is no window until the next
// tick) or without (the subtraction itself saturates).
func TestWindowSurvivesReset(t *testing.T) {
	startWindow(t)
	h := GetOrNewHistogram("test.win.reset", "")
	c := GetOrNew("test.win.reset_total")
	for i := 0; i < 50; i++ {
		h.Record(1000)
	}
	c.Add(50)
	TimelineTick()
	stale := readings.ring[len(readings.ring)-1]

	ResetForTest()
	h.Record(1000)
	c.Inc()
	if w := windowNow(); w.families != nil || w.rates != nil {
		t.Fatalf("window right after ResetForTest = %+v, want none until the next tick", w)
	}
	TimelineTick() // windows resume from here
	h.Record(1000)
	c.Add(2)
	time.Sleep(time.Millisecond)
	w := windowNow()
	if got := w.families["test.win.reset"].Count; got != 1 {
		t.Errorf("window Count after reset and tick = %d, want 1", got)
	}
	if got := w.rates["test.win.reset_total"] * w.span.Seconds(); got < 1.5 || got > 2.5 {
		t.Errorf("window counter delta after reset and tick = %v, want 2", got)
	}

	// A reset that lands between a retained reading and the next one.
	clearReadings()
	pushReading(stale)
	w = windowNow()
	if got := w.families["test.win.reset"]; got.Count != 0 || got.Sum != 0 {
		t.Errorf("window over a reset = count %d sum %d, want 0 0 (saturated)", got.Count, got.Sum)
	}
	if got, ok := w.rates["test.win.reset_total"]; ok {
		t.Errorf("counter rate over a reset = %v, want absent (saturated)", got)
	}

	// Starting a ticker restarts from a fresh baseline, not from the stale
	// reading.
	startTimeline(time.Hour)
	if w := windowNow(); w.families["test.win.reset"].Count != 0 || w.rates != nil {
		t.Errorf("window right after a restart = %+v, want empty", w)
	}
	c.Add(7)
	time.Sleep(time.Millisecond)
	w = windowNow()
	if got := w.rates["test.win.reset_total"] * w.span.Seconds(); got < 6.5 || got > 7.5 {
		t.Errorf("counter delta since the restart = %v, want 7", got)
	}
}

// TestRegisterGaugeFunc pins the callback-gauge contract: reads evaluate
// the function, re-registration replaces, a stale unregister is a no-op,
// and stored gauges shadow callbacks in the snapshot.
func TestRegisterGaugeFunc(t *testing.T) {
	un1 := RegisterGaugeFunc("test.gaugefunc", "", func() float64 { return 7 })
	if v, ok := GaugeValue("test.gaugefunc", ""); !ok || v != 7 {
		t.Fatalf("GaugeValue = %v,%v want 7,true", v, ok)
	}
	// Replace; then the old unregister must not remove the new registration.
	un2 := RegisterGaugeFunc("test.gaugefunc", "", func() float64 { return 9 })
	un1()
	if v, ok := GaugeValue("test.gaugefunc", ""); !ok || v != 9 {
		t.Fatalf("after replace GaugeValue = %v,%v want 9,true", v, ok)
	}
	// Stored gauges win key collisions.
	SetGauge("test.gaugefunc.shadow", "", 1)
	unS := RegisterGaugeFunc("test.gaugefunc.shadow", "", func() float64 { return 2 })
	if v := gaugeSnapshot()["test.gaugefunc.shadow"]; v != 1 {
		t.Errorf("stored gauge shadowed by callback: snapshot = %v, want 1", v)
	}
	unS()
	un2()
	if _, ok := GaugeValue("test.gaugefunc", ""); ok {
		t.Error("gauge func still readable after unregister")
	}
}
