package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestWindowQuantileAccuracy records a known sample set and checks the
// windowed quantiles against the exact order statistics under the same
// contract as the cumulative histogram: the estimate never exceeds the true
// value and sits within one bucket's relative width (1/16) below it.
func TestWindowQuantileAccuracy(t *testing.T) {
	ResetForTest()
	h := GetOrNewHistogram("test.win.accuracy", "")
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })

	snap := h.WindowSnap()
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

	// The windowed and cumulative views of an un-rotated histogram agree.
	cum := h.Snap()
	if snap.Count != cum.Count || snap.Sum != cum.Sum {
		t.Errorf("window (count=%d sum=%d) disagrees with cumulative (count=%d sum=%d) before any rotation",
			snap.Count, snap.Sum, cum.Count, cum.Sum)
	}
}

// TestWindowRotationExpiry pins the sliding-window semantics across slot
// boundaries: samples stay visible for WinSlots-1 further rotations, expire
// on the WinSlots-th, and the cumulative histogram never forgets.
func TestWindowRotationExpiry(t *testing.T) {
	ResetForTest()
	h := GetOrNewHistogram("test.win.expiry", "")
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}

	// The batch stays in the window while its slot is still among the
	// WinSlots retained ones...
	for r := 1; r < WinSlots; r++ {
		h.RotateWindow()
		if got := h.WindowSnap().Count; got != 100 {
			t.Fatalf("after %d rotations window Count = %d, want 100", r, got)
		}
	}
	// ...and the WinSlots-th rotation reclaims the slot it was recorded in.
	h.RotateWindow()
	if got := h.WindowSnap().Count; got != 0 {
		t.Errorf("after %d rotations window Count = %d, want 0 (expired)", WinSlots, got)
	}
	if got := h.Snap().Count; got != 100 {
		t.Errorf("cumulative Count = %d after rotations, want 100", got)
	}

	// A second batch recorded post-rotation lands in the new current slot
	// and ages out on its own schedule.
	for i := 0; i < 40; i++ {
		h.Record(2000)
	}
	h.RotateWindow()
	if got := h.WindowSnap().Count; got != 40 {
		t.Errorf("fresh batch: window Count = %d after one rotation, want 40", got)
	}
}

// TestWindowRotationPartialOverlap interleaves recording and rotation and
// checks the merged window always equals the sum of the live slots.
func TestWindowRotationPartialOverlap(t *testing.T) {
	ResetForTest()
	h := GetOrNewHistogram("test.win.overlap", "")
	// One batch of i+1 samples per rotation period, WinSlots+2 periods.
	for p := 0; p < WinSlots+2; p++ {
		for i := 0; i <= p; i++ {
			h.Record(int64(1000 * (p + 1)))
		}
		h.RotateWindow()
		// Live slots hold the last min(p+1, WinSlots-1) full batches plus
		// the (empty) new current slot... except batches only expire once
		// rotation count exceeds WinSlots-1.
		want := uint64(0)
		for b := p; b >= 0 && b > p-(WinSlots-1); b-- {
			want += uint64(b + 1)
		}
		if got := h.WindowSnap().Count; got != want {
			t.Fatalf("period %d: window Count = %d, want %d", p, got, want)
		}
	}
}

// TestWindowConcurrentRecordRotate hammers the record path from several
// goroutines while another rotates continuously. Under -race this validates
// the lock-free slot handoff; in any mode it checks the invariants that
// survive the deliberately lossy boundary: the cumulative count is exact,
// and the window never exceeds what was recorded.
func TestWindowConcurrentRecordRotate(t *testing.T) {
	ResetForTest()
	h := GetOrNewHistogram("test.win.race", "")
	const (
		writers = 4
		perG    = 20000
	)
	stop := make(chan struct{})
	var rotator sync.WaitGroup
	rotator.Add(1)
	go func() {
		defer rotator.Done()
		for {
			select {
			case <-stop:
				return
			default:
				RotateWindows()
				time.Sleep(time.Microsecond)
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
	rotator.Wait()

	if got := h.Snap().Count; got != writers*perG {
		t.Errorf("cumulative Count = %d, want %d (rotation must never lose cumulative samples)", got, writers*perG)
	}
	if got := h.WindowSnap().Count; got > writers*perG {
		t.Errorf("window Count = %d exceeds samples recorded %d", got, writers*perG)
	}
}

// TestWindowRecordAllocs locks the windowed record path's zero-allocation
// guarantee (the ISSUE 9 acceptance bar alongside TestSearchAllocs).
func TestWindowRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates; alloc gate runs in the non-race matrix")
	}
	ResetForTest()
	h := GetOrNewHistogram("test.win.allocs", "")
	if allocs := testing.AllocsPerRun(100, func() { h.Record(12345) }); allocs != 0 {
		t.Errorf("windowed Record allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.RotateWindow() }); allocs != 0 {
		t.Errorf("RotateWindow allocates %v per call, want 0", allocs)
	}
}

// TestMergedWindow checks the whole-family windowed view merges labeled
// instances and honors rotation.
func TestMergedWindow(t *testing.T) {
	ResetForTest()
	a := GetOrNewHistogram("test.win.family", `inst="a"`)
	b := GetOrNewHistogram("test.win.family", `inst="b"`)
	for i := 0; i < 10; i++ {
		a.Record(100)
	}
	for i := 0; i < 5; i++ {
		b.Record(200)
	}
	if got := MergedWindow("test.win.family").Count; got != 15 {
		t.Errorf("MergedWindow Count = %d, want 15", got)
	}
	if got := MergedWindow("test.win.nosuch").Count; got != 0 {
		t.Errorf("unknown family MergedWindow Count = %d, want 0", got)
	}
	for r := 0; r < WinSlots; r++ {
		a.RotateWindow()
	}
	if got := MergedWindow("test.win.family").Count; got != 5 {
		t.Errorf("after expiring a's samples MergedWindow Count = %d, want 5", got)
	}
}

// TestRateWindow drives the counter-delta ring with synthetic snapshots and
// pins the windowed-rate arithmetic, the baseline arming, and expiry.
func TestRateWindow(t *testing.T) {
	rw := &RateWindow{}
	if got := rw.RatesPerSec(); got != nil {
		t.Fatalf("rates before any tick = %v, want nil", got)
	}
	// First tick arms the baseline only.
	rw.Tick(Snap{"q": 100}, 0)
	if got := rw.RatesPerSec(); got != nil {
		t.Fatalf("rates after baseline tick = %v, want nil", got)
	}
	// 50 increments over 10 seconds → 5/s.
	rw.Tick(Snap{"q": 150}, 10*time.Second)
	rates := rw.RatesPerSec()
	if got := rates["q"]; got != 5 {
		t.Errorf("rate after one delta = %v, want 5", got)
	}
	// A second delta: 10 more over 10s → window rate (50+10)/20s = 3/s.
	rw.Tick(Snap{"q": 160}, 10*time.Second)
	if got := rw.RatesPerSec()["q"]; got != 3 {
		t.Errorf("rate after two deltas = %v, want 3", got)
	}
	if got := rw.WindowSpan(); got != 20*time.Second {
		t.Errorf("WindowSpan = %v, want 20s", got)
	}
	// Idle ticks age the early delta out of the ring.
	for i := 0; i < WinSlots; i++ {
		rw.Tick(Snap{"q": 160}, 10*time.Second)
	}
	if got, ok := rw.RatesPerSec()["q"]; ok && got != 0 {
		t.Errorf("rate after idle window = %v, want 0 or absent", got)
	}
	rw.Reset()
	if got := rw.RatesPerSec(); got != nil {
		t.Errorf("rates after Reset = %v, want nil", got)
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
	keys, vals := gaugeSnapshot()
	for i, k := range keys {
		if k == "test.gaugefunc.shadow" && vals[i] != 1 {
			t.Errorf("stored gauge shadowed by callback: snapshot = %v, want 1", vals[i])
		}
	}
	unS()
	un2()
	if _, ok := GaugeValue("test.gaugefunc", ""); ok {
		t.Error("gauge func still readable after unregister")
	}
}
