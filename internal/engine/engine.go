// Package engine runs batches of kNN queries over one shared index on a
// few goroutines. It schedules knn.Search calls and nothing else: a batch
// starts its workers for the call, each worker claims query indices from
// one shared counter and answers them out of its own knn.Searcher, and the
// call returns when every query is answered.
//
// The index must not be mutated while a batch is running over it. Wrap a
// snapshot with knn.WrapPacked (an SS-tree's Freeze) so the workers stream
// over the packed form — the engine works either way, but the packed walk
// is both faster and immune to accidental mutation, since the snapshot is
// immutable.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
)

// Engine holds an index and the settings its batches run with. It owns no
// goroutines between calls; SearchBatch and Search are safe for concurrent
// use from any number of goroutines.
type Engine struct {
	idx     knn.Index
	crit    dominance.Criterion
	algo    knn.Algorithm
	workers int
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets how many goroutines a batch runs on at most; n ≤ 0 (and
// the default) selects GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCriterion sets the dominance criterion (default Hyperbola, the exact
// one).
func WithCriterion(c dominance.Criterion) Option {
	return func(e *Engine) { e.crit = c }
}

// WithAlgorithm sets the traversal strategy of a pointer index (default
// HS); a packed one is walked depth-first whatever it says (knn.Search).
func WithAlgorithm(a knn.Algorithm) Option {
	return func(e *Engine) { e.algo = a }
}

// New returns an engine over the index.
func New(idx knn.Index, opts ...Option) *Engine {
	e := &Engine{idx: idx, crit: dominance.Hyperbola{}, algo: knn.HS}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	return e
}

// SearchBatch answers every query with the engine's criterion and strategy
// and returns the results in query order. It runs min(workers,
// len(queries)) goroutines for the call. If a query panics (a query of the
// wrong dimension, say), the other workers stop claiming queries and
// SearchBatch panics with the first panic value on the caller's goroutine.
func (e *Engine) SearchBatch(queries []geom.Sphere, k int) []knn.Result {
	if k <= 0 {
		panic(fmt.Sprintf("engine: k = %d", k))
	}
	results := make([]knn.Result, len(queries))
	var (
		next     atomic.Int64
		failed   atomic.Bool
		panicVal any // written by the one worker that sets failed
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		s := knn.NewSearcher()
		defer s.Close()
		defer func() {
			if r := recover(); r != nil && failed.CompareAndSwap(false, true) {
				panicVal = r
			}
		}()
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(queries) {
				return
			}
			results[i] = s.Search(e.idx, queries[i], k, e.crit, e.algo)
		}
	}
	n := min(e.workers, len(queries))
	wg.Add(n)
	for w := 0; w < n; w++ {
		go worker()
	}
	wg.Wait()
	if failed.Load() {
		panic(panicVal)
	}
	return results
}

// Search answers a single query on the calling goroutine: knn.Search with
// the engine's criterion and strategy.
func (e *Engine) Search(sq geom.Sphere, k int) knn.Result {
	if k <= 0 {
		panic(fmt.Sprintf("engine: k = %d", k))
	}
	return knn.Search(e.idx, sq, k, e.crit, e.algo)
}

// Close does nothing: an Engine holds no goroutines between calls.
func (e *Engine) Close() {}
