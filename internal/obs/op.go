package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// One record, one ring (DESIGN.md §9). Every finished operation — a kNN
// search, a brute-force scan, a served request wrapping a search — is
// described by one Op, and the SlowSlots slowest recent ones are retained in
// one ring so a tail-latency spike can be explained after the fact. The
// debug endpoints are projections of that ring: /debug/slow lists every op
// by its search fields, /debug/requests the ops a server wrapped by their
// request fields and shard tree, and /debug/requests?format=chrome renders
// those through WriteChromeTrace.

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

// Op is one finished operation's telemetry record. The search that ran
// fills the first block; Forest is set when it walked a forest for a caller
// who asked for the explain, and the request block when a server wrapped
// it. An Op in the ring is immutable: Record stores a private copy.
type Op struct {
	// WhenUnixNs is the start of the outermost clock: the request's when a
	// server wrapped the search, the search's otherwise.
	WhenUnixNs int64
	LatencyNs  int64 // the search's own latency
	Substrate  string
	Algo       string
	K          int // the k the search ran with
	Nodes      uint64
	Items      uint64
	DomChecks  uint64
	Pruned     uint64
	HeapPushes uint64

	Forest

	RequestID  string // empty when no server wrapped the search
	Collection string
	Endpoint   string
	Status     int
	RequestNs  int64 // the request's wall latency, 0 without a request
}

// rank is the latency the ring orders by: the outermost one.
func (o *Op) rank() int64 { return max(o.LatencyNs, o.RequestNs) }

// SlowSlots is the ring capacity: how many slow operations are retained.
const SlowSlots = 64

// SlowRing retains the slowest recent operations. A slot is one atomic
// pointer to an Op nobody writes after it is stored, so a reader sees a
// whole record or none — there is no version to check and nothing to lock.
// The ring is deliberately lossy: two concurrent admissions may pick the
// same slot, and the last store wins. The zero value is ready to use.
type SlowRing struct {
	slots [SlowSlots]atomic.Pointer[Op]
	// floor caches the smallest retained rank (0 while a slot is free), so
	// an op that cannot displace anything pays one atomic load. Racing
	// admissions may leave it slightly stale in either direction until the
	// next one refreshes it; that costs a spurious scan or a dropped op.
	floor atomic.Int64
}

// Slow is the process-wide ring every instrumented layer records into.
var Slow = &SlowRing{}

// fastest returns the slot holding the fastest op and its rank; a free slot
// ranks 0.
func (r *SlowRing) fastest() (slot int, rank int64) {
	rank = math.MaxInt64
	for i := range r.slots {
		var l int64
		if o := r.slots[i].Load(); o != nil {
			l = o.rank()
		}
		if l < rank {
			slot, rank = i, l
		}
	}
	return slot, rank
}

// Record offers one finished operation to the ring. An op no slower than
// every retained one returns after one atomic load and allocates nothing; a
// slower one is copied to the heap and replaces the currently fastest, so
// the caller may keep (or keep on its stack) the Op it passed. Callers gate
// on On() themselves.
func (r *SlowRing) Record(op *Op) {
	rank := op.rank()
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

// Dump returns the retained operations, slowest first.
func (r *SlowRing) Dump() []*Op {
	out := make([]*Op, 0, SlowSlots)
	for i := range r.slots {
		if o := r.slots[i].Load(); o != nil {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if ra, rb := out[a].rank(), out[b].rank(); ra != rb {
			return ra > rb
		}
		return out[a].WhenUnixNs > out[b].WhenUnixNs
	})
	return out
}

// Served returns the retained operations a server wrapped, slowest first.
func (r *SlowRing) Served() []*Op {
	ops := r.Dump()
	n := 0
	for _, o := range ops {
		if o.RequestID != "" {
			ops[n] = o
			n++
		}
	}
	return ops[:n]
}

// Reset empties the ring. Like ResetForTest, not linearizable against
// concurrent recorders.
func (r *SlowRing) Reset() {
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
	r.floor.Store(0)
}

// SlowRecord is one /debug/slow entry: an op by its search fields.
// LatencyNs is the search's; When renders WhenUnixNs as RFC3339Nano text so
// entries line up with the timeline ring and external logs, and RequestID
// joins the entry to its /debug/requests view.
type SlowRecord struct {
	WhenUnixNs int64  `json:"when_unix_ns"`
	When       string `json:"when"`
	LatencyNs  int64  `json:"latency_ns"`
	Substrate  string `json:"substrate"`
	Algo       string `json:"algo"`
	K          int    `json:"k"`
	Nodes      uint64 `json:"nodes_visited"`
	Items      uint64 `json:"items_scanned"`
	DomChecks  uint64 `json:"dom_checks"`
	Pruned     uint64 `json:"pruned"`
	HeapPushes uint64 `json:"heap_pushes"`
	RequestID  string `json:"request_id,omitempty"`
}

// RequestRecord is one /debug/requests entry: a served op by its request
// fields and shard tree. LatencyNs is the request's.
type RequestRecord struct {
	RequestID  string `json:"request_id"`
	Collection string `json:"collection"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	K          int    `json:"k"`
	WhenUnixNs int64  `json:"when_unix_ns"`
	When       string `json:"when"`
	LatencyNs  int64  `json:"latency_ns"`
	// ShardsVisited is how many of Shards the request actually opened; the
	// rest were skipped off their root bound.
	ShardsVisited int `json:"shards_visited"`
	Forest
}

func (o *Op) when() string { return time.Unix(0, o.WhenUnixNs).Format(time.RFC3339Nano) }

// SlowRecords projects ops onto their /debug/slow view.
func SlowRecords(ops []*Op) []SlowRecord {
	out := make([]SlowRecord, len(ops))
	for i, o := range ops {
		out[i] = SlowRecord{
			WhenUnixNs: o.WhenUnixNs, When: o.when(), LatencyNs: o.LatencyNs,
			Substrate: o.Substrate, Algo: o.Algo, K: o.K,
			Nodes: o.Nodes, Items: o.Items, DomChecks: o.DomChecks, Pruned: o.Pruned, HeapPushes: o.HeapPushes,
			RequestID: o.RequestID,
		}
	}
	return out
}

// RequestRecords projects served ops onto their /debug/requests view.
func RequestRecords(ops []*Op) []RequestRecord {
	out := make([]RequestRecord, len(ops))
	for i, o := range ops {
		out[i] = RequestRecord{
			RequestID: o.RequestID, Collection: o.Collection, Endpoint: o.Endpoint, Status: o.Status, K: o.K,
			WhenUnixNs: o.WhenUnixNs, When: o.when(), LatencyNs: o.RequestNs,
			ShardsVisited: o.Visited(), Forest: o.Forest,
		}
	}
	return out
}
