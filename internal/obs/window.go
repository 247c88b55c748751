package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sliding-window aggregation (ISSUE 9). Every surface built so far is
// cumulative since process start, so a long-running server cannot answer
// "what is the p99 right now". The time dimension is added in two shapes:
//
//   - Windowed histograms: every registered Histogram carries WinSlots
//     rotating time shards over the same 624-bucket layout as the
//     cumulative counts. The record path gains one atomic load (the
//     current slot index) and one atomic add (the slot bucket) — still
//     lock-free, still allocation-free (test-locked). RotateWindows,
//     driven by the timeline ticker, zeroes the oldest slot and makes it
//     current; WindowSnap merges all slots into an ordinary HistSnap, so
//     windowed quantiles cover the last WinSlots-1..WinSlots rotation
//     periods (nominally 1 minute at the default 10s period).
//
//   - Counter-delta rate rings: RateWindow keeps, per registered counter,
//     a ring of per-tick deltas. Ticked off the same timeline cadence, it
//     turns the monotone counters into windowed per-second rates without
//     touching any hot path — the deltas come from ordinary snapshots.
//
// Rotation is deliberately lossy at the slot boundary: a recorder that
// loaded the slot index just before a rotation lands its sample in the
// previous slot, which is still inside the window. No sample is ever torn
// or double-counted; at most it ages out one period early.

// WinSlots is the number of rotating time shards per histogram window.
// With the timeline's default 10s rotation period the merged window spans
// 50–60 seconds — the "_1m" families of the /metrics exposition.
const WinSlots = 6

// winSlot is one time shard of a histogram window. Buckets are written
// with plain atomic adds by any goroutine currently recording; the
// trailing pad keeps the next slot's first buckets off this slot's last
// cache line.
type winSlot struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [cacheLine - 8]byte
}

// histWindow is the windowed side of a Histogram: the rotating slots and
// the atomically published index of the slot currently recorded into.
type histWindow struct {
	cur   atomic.Int32
	_     [cacheLine - 4]byte // keep rotations off the recorders' slot lines
	slots [WinSlots]winSlot
}

// recordWindow lands one already-bucketed sample in the current slot.
// Called from Record with the bucket index it just computed, so the
// windowed path shares the histIndex work.
func (w *histWindow) record(bucket int, v int64) {
	s := &w.slots[int(w.cur.Load())%WinSlots]
	s.counts[bucket].Add(1)
	if v > 0 {
		s.sum.Add(uint64(v))
	}
}

// rotate zeroes the oldest slot and publishes it as current. Zeroing
// happens before the publish, so recorders never see a dirty slot; a
// recorder racing the publish writes into the previous slot, which stays
// in the window.
func (w *histWindow) rotate() {
	next := (w.cur.Load() + 1) % WinSlots
	s := &w.slots[next]
	for i := range s.counts {
		s.counts[i].Store(0)
	}
	s.sum.Store(0)
	w.cur.Store(next)
}

// reset zeroes every slot (ResetForTest).
func (w *histWindow) reset() {
	for i := range w.slots {
		s := &w.slots[i]
		for b := range s.counts {
			s.counts[b].Store(0)
		}
		s.sum.Store(0)
	}
	w.cur.Store(0)
}

// WindowSnap merges the window's slots into one HistSnap — the same
// quantile machinery as the cumulative Snap, over only the samples of the
// last WinSlots rotation periods.
func (h *Histogram) WindowSnap() HistSnap {
	s := HistSnap{Name: h.name, Labels: h.labels, Counts: make([]uint64, histBuckets)}
	for si := range h.win.slots {
		slot := &h.win.slots[si]
		for i := range s.Counts {
			c := slot.counts[i].Load()
			s.Counts[i] += c
			s.Count += c
		}
		s.Sum += slot.sum.Load()
	}
	return s
}

// RotateWindow advances this histogram's window by one slot.
func (h *Histogram) RotateWindow() { h.win.rotate() }

// RotateWindows advances every registered histogram's window by one slot.
// The timeline ticker calls this once per period, after snapshotting.
func RotateWindows() {
	for _, h := range Histograms() {
		h.win.rotate()
	}
}

// MergedWindow merges the windowed snapshots of every labeled instance
// registered under name — the whole-family windowed view the timeline and
// the health verdict quantile from. An unknown name yields an empty
// snapshot.
func MergedWindow(name string) HistSnap {
	merged := HistSnap{Name: name, Counts: make([]uint64, histBuckets)}
	for _, h := range Histograms() {
		if h.name == name {
			merged.merge(h.WindowSnap())
		}
	}
	return merged
}

// RateWindow turns the monotone counter registry into windowed per-second
// rates: each Tick diffs the current snapshot against the previous one and
// stores the delta (plus the tick's wall duration) in a WinSlots ring.
// Rates sums the ring, so a counter's windowed rate covers the same span
// as the histograms' windowed quantiles. All methods are mutex-guarded —
// ticks happen at timeline cadence, never on a query path.
type RateWindow struct {
	mu      sync.Mutex
	prev    Snap
	started bool
	slots   [WinSlots]Snap
	elapsed [WinSlots]time.Duration
	cur     int
}

// Rates is the process-wide counter rate ring, ticked by the timeline.
var Rates = &RateWindow{}

// Tick folds one new counter snapshot into the ring: the delta since the
// previous tick replaces the oldest slot. dt is the wall time since that
// previous tick. The first tick only arms the baseline and stores nothing.
func (rw *RateWindow) Tick(now Snap, dt time.Duration) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if !rw.started {
		rw.prev, rw.started = now, true
		return
	}
	rw.cur = (rw.cur + 1) % WinSlots
	rw.slots[rw.cur] = now.Diff(rw.prev)
	rw.elapsed[rw.cur] = dt
	rw.prev = now
}

// RatesPerSec returns every counter's windowed per-second rate: the summed
// ring deltas divided by the summed ring durations. Counters that did not
// move inside the window are absent. Returns nil before the second tick.
func (rw *RateWindow) RatesPerSec() map[string]float64 {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	var total time.Duration
	sums := make(map[string]uint64)
	for i := range rw.slots {
		total += rw.elapsed[i]
		for name, d := range rw.slots[i] {
			sums[name] += d
		}
	}
	if total <= 0 || len(sums) == 0 {
		return nil
	}
	secs := total.Seconds()
	out := make(map[string]float64, len(sums))
	for name, s := range sums {
		out[name] = float64(s) / secs
	}
	return out
}

// WindowSpan returns the wall duration the ring currently covers.
func (rw *RateWindow) WindowSpan() time.Duration {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	var total time.Duration
	for _, d := range rw.elapsed {
		total += d
	}
	return total
}

// Reset empties the ring and disarms the baseline (ResetForTest).
func (rw *RateWindow) Reset() {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.prev, rw.started, rw.cur = nil, false, 0
	for i := range rw.slots {
		rw.slots[i], rw.elapsed[i] = nil, 0
	}
}
