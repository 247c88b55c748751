// Package obs is the process-wide observability substrate: a registry of
// named, allocation-free counters that every layer of the system —
// dominance criteria, kNN traversals, the tree substrates, the workload
// runners — increments on its hot paths, plus snapshot/diff machinery so
// operators (and the benchmark harness) can read the work counts the
// paper's evaluation is stated in.
//
// Design constraints, in order:
//
//  1. A counter update on a hot path must cost one uncontended atomic add —
//     no map lookup, no lock, no allocation. Callers hold *Counter
//     pointers resolved once at package init.
//  2. Counters written from many goroutines must not false-share: each
//     Counter is padded out to its own cache line.
//  3. The whole layer must be switchable off (SetEnabled) so timing runs
//     that want paper-comparable numbers can exclude even the atomic adds.
//     The gate is obs's own: Counter.Inc/Add, Histogram.Record and
//     SlowRing.Record each drop the event when it is off, at the cost of one
//     relaxed atomic load, so no caller reads it.
//
// The innermost kernels (PreparedPair.Dominates, the traversal) go one
// step further and tally into plain locals owned by one goroutine,
// flushing into the registry counters at amortization points (search end,
// every 4096th event). See DESIGN.md §8.
package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// cacheLine is the assumed cache-line (and padding) granularity. 64 bytes
// covers x86-64 and most arm64 cores; on 128-byte-line machines two
// counters may share a line, which costs some false sharing but is still
// correct.
const cacheLine = 64

// Counter is a monotonically increasing, cache-line-padded atomic counter.
// All methods are safe for concurrent use and never allocate; Inc and Add do
// nothing while the gate is off (SetEnabled). Counters are created through
// New/GetOrNew so they appear in snapshots; the zero value works but is
// invisible to the registry.
type Counter struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds 1 when the gate is on.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n when the gate is on.
func (c *Counter) Add(n uint64) {
	if On() {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// enabled is the gate every recorder checks. Stored as int32 for a cheap
// relaxed-ish load on all architectures; 1 = on. On by default.
var enabled atomic.Int32

func init() { enabled.Store(1) }

// On reports whether instrumentation is enabled.
func On() bool { return enabled.Load() != 0 }

// SetEnabled turns instrumentation on or off process-wide. Counters and
// histograms keep their values; while it is off they, and the Slow ring,
// take no new events — a local tally flushed then is dropped.
func SetEnabled(on bool) {
	if on {
		enabled.Store(1)
	} else {
		enabled.Store(0)
	}
}

// counters is the counter table (table.go).
var counters = table[Counter]{m: make(map[string]*Counter)}

func newCounter(string) *Counter { return new(Counter) }

// New registers and returns a counter under the given name. It panics on a
// duplicate name: two subsystems silently sharing a counter is a bug. Use
// GetOrNew for names built at runtime.
func New(name string) *Counter { return counters.getOrNew(name, newCounter, true) }

// GetOrNew returns the counter registered under name, creating it if
// needed. For counter names derived from runtime values (for example a
// criterion name); static instrumentation should use New at init.
func GetOrNew(name string) *Counter { return counters.getOrNew(name, newCounter, false) }

// GetOrNewLabeled returns the counter registered under name with the given
// constant Prometheus label pairs (e.g. `code="200",endpoint="knn"`),
// creating it if needed. Keep the pair order consistent per family so each
// combination resolves to a single counter.
func GetOrNewLabeled(name, labels string) *Counter {
	return GetOrNew(labeledKey(name, labels))
}

// Lookup returns the counter registered under name, or nil.
func Lookup(name string) *Counter { return counters.lookup(name) }

// Snap is a point-in-time reading of every registered counter.
type Snap map[string]uint64

// Snapshot reads every registered counter. The reads are individually
// atomic but not mutually consistent — counters may advance between reads;
// for work accounting over a bounded region, take a snapshot before and
// after and Diff them.
func Snapshot() Snap { return snapshotFamily("") }

// snapshotFamily reads only the counters of one family: name itself and
// every labeled instance of it.
func snapshotFamily(name string) Snap {
	family := counters.family(name)
	s := make(Snap, len(family))
	for key, c := range family {
		s[key] = c.Load()
	}
	return s
}

// Diff returns s − prev per counter, keeping only the counters that moved.
// Counters absent from prev are treated as 0 there.
func (s Snap) Diff(prev Snap) Snap {
	out := make(Snap)
	for name, v := range s {
		if d := v - prev[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// Get returns the named value, or 0 when absent — so prune-rate style
// arithmetic over a Diff needs no existence checks.
func (s Snap) Get(name string) uint64 { return s[name] }

// Fprint writes the snapshot as "name value" lines in exposition order.
func (s Snap) Fprint(w io.Writer) {
	for _, name := range labeledKeys(s) {
		fmt.Fprintf(w, "%-48s %d\n", name, s[name])
	}
}
