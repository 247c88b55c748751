package obs

import (
	"sync"
	"time"
)

// The sliding window. Counters and histogram buckets only ever grow, so
// "what happened in the last minute" needs no storage on the record path:
// it is a reading of the registry now minus a reading taken a minute ago,
// exact per bucket and per counter. The timeline ticker keeps the last
// WinSlots cumulative readings — a baseline when it starts, one more per
// tick, the oldest overwritten — and windowOf forms the one window every
// surface reads (/metrics' _1m families, each timeline snapshot, both health
// checks), so windowed quantiles and rates cover the same span by
// construction. With no reading retained (no timeline was started, or
// ResetForTest just cleared the ring) there is no window, rather than a
// lifetime total under a "_1m" name.

// WinSlots is the number of cumulative readings retained. The window
// reaches back to the oldest of them: WinSlots periods at the moment of a
// tick, WinSlots-1 just after it — 50–60 s at the default 10 s period, the
// nominal minute of the "_1m" families — and less while the ring warms up.
const WinSlots = 6

// reading is one cumulative reading of the registry: counter values and
// histogram families merged across their labeled instances, at when. A
// partial reading (Health's: one family of each) windows like a full one.
type reading struct {
	when     time.Time
	counters Snap
	families map[string]HistSnap
}

// add folds one histogram snapshot into the family it is named after.
func (r *reading) add(s HistSnap) {
	if r.families == nil {
		r.families = make(map[string]HistSnap)
	}
	f := r.families[s.Name]
	f.merge(s)
	r.families[s.Name] = f
}

// takeReading reads the whole registry.
func takeReading() reading {
	r := reading{when: time.Now(), counters: Snapshot()}
	for _, h := range Histograms() {
		r.add(h.Snap())
	}
	return r
}

// readings holds the retained readings, oldest first.
var readings struct {
	mu   sync.Mutex
	ring []reading
}

// pushReading retains r, dropping the oldest reading once WinSlots are held.
func pushReading(r reading) {
	readings.mu.Lock()
	readings.ring = pushBounded(readings.ring, r, WinSlots)
	readings.mu.Unlock()
}

// clearReadings drops every retained reading: no window until the next push.
func clearReadings() {
	readings.mu.Lock()
	readings.ring = nil
	readings.mu.Unlock()
}

// pushBounded appends v to ring, first shifting out the oldest element when
// ring already holds max. The rings here are a few hundred words pushed once
// per tick; the copy buys oldest-first order with no index arithmetic.
func pushBounded[T any](ring []T, v T, max int) []T {
	if len(ring) == max {
		ring = ring[:copy(ring, ring[1:])]
	}
	return append(ring, v)
}

// window is what the registry did between the oldest retained reading and a
// later one. The zero window means there is none.
type window struct {
	// span is the wall time between the two readings.
	span time.Duration
	// families holds, for every histogram family of the later reading, the
	// samples recorded inside the span (Count 0 for an idle family).
	families map[string]HistSnap
	// rates holds the per-second rate of every counter that moved inside
	// the span; nil when none did.
	rates map[string]float64
}

// windowOf subtracts the oldest retained reading from now — the only place
// a past reading meets the live registry. The subtraction saturates at
// zero: a registry zeroed between the two readings (ResetForTest racing a
// tick) reads as idle, not as 2⁶⁴ events.
func windowOf(now reading) window {
	readings.mu.Lock()
	defer readings.mu.Unlock()
	if len(readings.ring) == 0 {
		return window{}
	}
	base := readings.ring[0]
	w := window{span: now.when.Sub(base.when), families: make(map[string]HistSnap, len(now.families))}
	for name, f := range now.families {
		d := HistSnap{Name: name, Counts: make([]uint64, histBuckets), Sum: monus(f.Sum, base.families[name].Sum)}
		was := base.families[name].Counts // empty for a family registered since
		for i, c := range f.Counts {
			if i < len(was) {
				c = monus(c, was[i])
			}
			d.Counts[i] = c
			d.Count += c
		}
		w.families[name] = d
	}
	if secs := w.span.Seconds(); secs > 0 {
		for name, v := range now.counters {
			if d := monus(v, base.counters[name]); d != 0 {
				if w.rates == nil {
					w.rates = make(map[string]float64)
				}
				w.rates[name] = float64(d) / secs
			}
		}
	}
	return w
}

// monus is a − b, or 0 when b > a.
func monus(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}
