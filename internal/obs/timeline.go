package obs

import (
	"sync"
	"time"
)

// The timeline ticker drives the one time dimension of the process:
//
//	at start and every TimelinePeriod:
//	    sample the runtime, publish the hyperdom_runtime_* gauges
//	    retain one cumulative reading (window.go)
//	    expire the Slow ring's ops that started before the window's base
//
// So the runtime gauges, the window (/metrics' _1m families, /debug/health)
// and the Slow ring's recency all exist from the first scrape after start
// and move together. Without a ticker there is no window and nothing in the
// ring expires.

// TimelinePeriod is the tick cadence: WinSlots readings at 10 s give the
// nominal one-minute windows of the _1m metric families.
const TimelinePeriod = 10 * time.Second

// timeline is the ticker goroutine's lifecycle.
var timeline struct {
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// StartTimeline ticks once now and then every TimelinePeriod. A second call
// replaces the running ticker, and windows restart from its first tick.
// Stop with StopTimeline.
func StartTimeline() { startTimeline(TimelinePeriod) }

func startTimeline(period time.Duration) {
	StopTimeline()
	stop := make(chan struct{})
	done := make(chan struct{})
	timeline.mu.Lock()
	timeline.stop, timeline.done = stop, done
	timeline.mu.Unlock()
	TimelineTick()

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

// StopTimeline stops the ticker goroutine and drops the window readings
// (nothing ticks, so nothing bounds a window any more). Safe to call when
// the timeline is not running.
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

// TimelineTick performs one step by hand: publish the runtime gauges,
// retain a reading of the registry, and expire the ops older than the
// window that reading leaves. The ticker calls it on its cadence; tests
// may call it directly — with no reading retained yet, this one is the
// window's base.
func TimelineTick() {
	PublishRuntimeGauges(SampleRuntime())
	Slow.expire(pushReading(takeReading()))
}
