package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// One request record, one ring, one view (DESIGN.md §9). Every served kNN
// request is described by one Op — its identity, status and wall latency,
// and the per-shard spans of the search it ran — and the SlowSlots slowest
// recent ones are retained in one ring so a tail-latency spike can be
// explained after the fact. /debug/requests serves the ring's Dump.

// BoundValue is a float64 that marshals non-finite values (the +Inf a
// never-tightened distK bound reports) as JSON null instead of failing the
// whole encode.
type BoundValue float64

// MarshalJSON implements json.Marshaler.
func (v BoundValue) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

// ShardSpan is one shard's slice of a forest search. The shards of a
// collection are searched one after another, nearest first, into one
// best-known list: Order is the shard's position in that walk, and Skipped
// marks a shard that was never opened — empty, or its root bound already
// beyond the running distK (Order is -1 then, and the work fields are zero).
// BoundObserved and BoundPublished are the list's distK on entering and on
// leaving the shard (+Inf, rendered null, while fewer than k items have been
// seen); Candidates is how many entries the shard added to the list.
// QueueWaitNs is always 0 — a shard search no longer waits in a queue — and
// stays in the payload so that clients written against the earlier shape
// keep decoding.
type ShardSpan struct {
	Shard          int        `json:"shard"`
	Items          int        `json:"items"` // items resident in the shard
	Order          int        `json:"order"`
	Skipped        bool       `json:"skipped"`
	LatencyNs      int64      `json:"latency_ns"`
	QueueWaitNs    int64      `json:"queue_wait_ns"`
	Candidates     int        `json:"candidates"`
	NodesVisited   int        `json:"nodes_visited"`
	ItemsScanned   int        `json:"items_scanned"`
	CoarsePrunes   uint64     `json:"coarse_prunes"`
	BoundObserved  BoundValue `json:"distk_observed"`
	BoundPublished BoundValue `json:"distk_published"`
}

// MergeSpan is the end of a forest search: the one final filter of
// everything the shards left in the list against the global Sk, and the
// sort of what survives.
type MergeSpan struct {
	LatencyNs  int64 `json:"latency_ns"`
	Candidates int   `json:"candidates"`
	Pruned     int   `json:"pruned"`
	Results    int   `json:"results"`
}

// Forest is the part of an Op a search over several trees fills when its
// caller asked for it: one span per tree, in tree order, and the span of the
// final Definition 2 filter. It marshals as the ?explain=true subtree of a
// kNN response.
type Forest struct {
	Shards []ShardSpan `json:"shards"`
	Merge  MergeSpan   `json:"merge"`
}

// Visited returns how many of the trees the search opened.
func (f *Forest) Visited() int {
	n := 0
	for i := range f.Shards {
		if !f.Shards[i].Skipped {
			n++
		}
	}
	return n
}

// Op is one served request's telemetry record, and one /debug/requests
// entry as it marshals: the request block the HTTP middleware fills, and the
// Forest the search filled for it. An Op in the ring is immutable: Record
// stores a private copy.
type Op struct {
	RequestID  string `json:"request_id"`
	Collection string `json:"collection"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	K          int    `json:"k"`            // the k the search ran with
	WhenUnixNs int64  `json:"when_unix_ns"` // the request's start
	// When renders WhenUnixNs as RFC3339Nano text so entries line up with
	// access logs; Dump fills it.
	When      string `json:"when"`
	RequestNs int64  `json:"latency_ns"` // the request's wall latency
	// ShardsVisited is how many of Shards the request actually opened; the
	// rest were skipped off their root bound.
	ShardsVisited int `json:"shards_visited"`
	Forest
}

// SlowSlots is the ring capacity: how many slow requests are retained.
const SlowSlots = 64

// SlowRing retains the slowest recent operations: "recent" is the window
// (window.go), since every timeline tick expires the ops that started
// before it; with no timeline nothing expires. A slot is one atomic pointer
// to an Op nobody writes after it is stored, so a reader sees a whole
// record or none — there is no version to check and nothing to lock. The
// ring is deliberately lossy: two concurrent admissions may pick the same
// slot, and the last store wins. The zero value is ready to use.
type SlowRing struct {
	slots [SlowSlots]atomic.Pointer[Op]
	// floor caches the smallest retained RequestNs (0 while a slot is
	// free), so an op that cannot displace anything pays one atomic load.
	// Racing admissions may leave it slightly stale in either direction
	// until the next one refreshes it; that costs a spurious scan or a
	// dropped op.
	floor atomic.Int64
}

// Slow is the process-wide ring: the HTTP middleware records each served
// kNN request into it.
var Slow = &SlowRing{}

// fastest returns the slot holding the fastest op and its latency; a free
// slot ranks 0.
func (r *SlowRing) fastest() (slot int, rank int64) {
	rank = math.MaxInt64
	for i := range r.slots {
		var l int64
		if o := r.slots[i].Load(); o != nil {
			l = o.RequestNs
		}
		if l < rank {
			slot, rank = i, l
		}
	}
	return slot, rank
}

// Record offers one finished request to the ring. An op no slower than
// every retained one returns after one atomic load and allocates nothing; a
// slower one is copied to the heap and replaces the currently fastest, so
// the caller may keep (or keep on its stack) the Op it passed. Callers gate
// on On() themselves.
func (r *SlowRing) Record(op *Op) {
	rank := op.RequestNs
	if rank <= r.floor.Load() {
		return
	}
	slot, floor := r.fastest()
	if rank > floor {
		admitted := new(Op)
		*admitted = *op
		r.slots[slot].Store(admitted)
		_, floor = r.fastest()
	}
	r.floor.Store(floor)
}

// expire frees every slot whose op started before base, then refreshes
// floor. An op admitted concurrently into a slot being freed survives: the
// slot is cleared only if it still holds the expired op.
func (r *SlowRing) expire(base time.Time) {
	ns := base.UnixNano()
	for i := range r.slots {
		if o := r.slots[i].Load(); o != nil && o.WhenUnixNs < ns {
			r.slots[i].CompareAndSwap(o, nil)
		}
	}
	_, floor := r.fastest()
	r.floor.Store(floor)
}

// Dump returns copies of the retained operations, slowest first, with When
// rendered.
func (r *SlowRing) Dump() []Op {
	out := make([]Op, 0, SlowSlots)
	for i := range r.slots {
		if o := r.slots[i].Load(); o != nil {
			out = append(out, *o)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if ra, rb := out[a].RequestNs, out[b].RequestNs; ra != rb {
			return ra > rb
		}
		return out[a].WhenUnixNs > out[b].WhenUnixNs
	})
	for i := range out {
		out[i].When = time.Unix(0, out[i].WhenUnixNs).Format(time.RFC3339Nano)
	}
	return out
}

// Reset empties the ring. Like ResetForTest, not linearizable against
// concurrent recorders.
func (r *SlowRing) Reset() {
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
	r.floor.Store(0)
}
