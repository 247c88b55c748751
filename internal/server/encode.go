package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
	"hyperdom/internal/vec"
)

// The kNN answer is assembled, not marshalled (DESIGN.md §13): a Definition
// 2 answer is every item Sk does not dominate — hundreds of items at the
// paper's defaults — and nearly all of its bytes are coordinates of a
// frozen corpus. appendKNNResponse writes the document with append calls,
// and a fragCache keeps each item's rendered text so a stored float is
// formatted once per collection rather than once per answer. The bytes are
// exactly encoding/json's for the equivalent structs, which live on in
// encode_test.go as the reference FuzzKNNResponseEncode holds this to.

// fragBudgetBytes is the most rendered item text a collection may hold. A
// collection gets a fragment cache only when all of it fits: query items
// are uniformly popular, so a direct-mapped cache over part of a collection
// hits slots/n of the time and costs its memory regardless.
const fragBudgetBytes = 4 << 20

// respBufs recycles response bodies: one contiguous buffer per answer in
// flight, so the document reaches the client in a single Write.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// fragment is the rendered {"id":…,"center":[…],"radius":…} text of one
// stored item. Its identity is the item's ID plus the address of its first
// stored coordinate: every collection serves from a frozen snapshot in
// which each item owns one immutable run of coordinates, so the pair names
// one item for as long as the collection lives, even when IDs repeat. The
// address is only ever compared.
type fragment struct {
	id   int
	addr *float64
	text string
}

// fragCache is a collection's item-fragment cache: a power-of-two array of
// write-once slots indexed by item ID. A slot is filled by the first item
// rendered through it and never replaced, so the cache holds at most one
// fragment per slot and needs neither a lock nor an eviction policy; an
// item that finds its slot taken by another is rendered every time.
type fragCache struct {
	slots []atomic.Pointer[fragment]
}

// newFragCache returns the cache for a collection of n items of the given
// dimensionality, or nil — no cache — when their estimated rendered text
// (32 bytes of framing and ID plus 20 per float) is over fragBudgetBytes.
func newFragCache(n, dim int) *fragCache {
	if n == 0 || n*(32+20*(dim+1)) > fragBudgetBytes {
		return nil
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &fragCache{slots: make([]atomic.Pointer[fragment], size)}
}

// appendItem appends it's JSON object to b, from the cache when it is
// there and rendering (and caching) it otherwise. A nil cache renders.
func (c *fragCache) appendItem(b []byte, it *geom.Item) ([]byte, error) {
	if c == nil {
		return appendItem(b, it)
	}
	slot := &c.slots[uint(it.ID)&uint(len(c.slots)-1)]
	addr := &it.Sphere.Center[0]
	if f := slot.Load(); f != nil {
		if f.id == it.ID && f.addr == addr {
			return append(b, f.text...), nil
		}
		return appendItem(b, it)
	}
	start := len(b)
	b, err := appendItem(b, it)
	if err != nil {
		return b, err
	}
	slot.CompareAndSwap(nil, &fragment{id: it.ID, addr: addr, text: string(b[start:])})
	return b, nil
}

// appendItem renders one item. JSON has no spelling for NaN or ±Inf, so an
// item holding one (a corrupt snapshot opened unverified, an embedder's
// index) is an error, reported before anything is appended.
func appendItem(b []byte, it *geom.Item) ([]byte, error) {
	s := it.Sphere
	if !vec.IsFinite(s.Center) || math.IsNaN(s.Radius) || math.IsInf(s.Radius, 0) {
		return b, fmt.Errorf("stored item %d has a non-finite coordinate or radius", it.ID)
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(it.ID), 10)
	b = append(b, `,"center":[`...)
	for j, x := range s.Center {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	b = append(b, `],"radius":`...)
	b = appendFloat(b, s.Radius)
	return append(b, '}'), nil
}

// appendFloat appends a finite f the way encoding/json spells a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a two-digit exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendKNNResponse appends the kNN answer document, newline included:
//
//	{"k":…,"ids":[…],"items":[…],"stats":{…}[,"explain":{…}]}
//
// k is the k the client asked for; an empty answer has "ids":[] and
// "items":null, as the marshalled structs did. explain, when non-nil, is
// the one subtree still marshalled: it is rare, small and not made of
// stored floats.
func appendKNNResponse(b []byte, k int, res knn.Result, frags *fragCache, explain *obs.Forest) ([]byte, error) {
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"ids":[`...)
	for i := range res.Items {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(res.Items[i].ID), 10)
	}
	b = append(b, `],"items":`...)
	if len(res.Items) == 0 {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i := range res.Items {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = frags.appendItem(b, &res.Items[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"stats":{"NodesVisited":`...)
	b = strconv.AppendInt(b, int64(res.Stats.NodesVisited), 10)
	b = append(b, `,"Items":`...)
	b = strconv.AppendInt(b, int64(res.Stats.Items), 10)
	b = append(b, `,"DomChecks":`...)
	b = strconv.AppendInt(b, int64(res.Stats.DomChecks), 10)
	b = append(b, `,"Pruned":`...)
	b = strconv.AppendInt(b, int64(res.Stats.Pruned), 10)
	// Resurrected counted interim dominance verdicts the final filter
	// overturned; no interim verdict is taken any more, so it is always 0 —
	// the key stays so that clients written against the earlier response
	// shape keep decoding.
	b = append(b, `,"Resurrected":0}`...)
	if explain != nil {
		ex, err := json.Marshal(explain)
		if err != nil {
			return b, fmt.Errorf("explain: %w", err)
		}
		b = append(b, `,"explain":`...)
		b = append(b, ex...)
	}
	return append(b, "}\n"...), nil
}
