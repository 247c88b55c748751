// Package engine is the parallel batch-query engine (ISSUE 5): a fixed
// pool of workers answering kNN queries over one shared index, each worker
// owning a knn.Searcher (and through it a scratch arena) for its whole
// lifetime, so a query costs no pool round-trip and no cross-worker
// sharing.
//
// Submission runs through a bounded queue: when every worker is busy and
// the queue is full, SearchBatch blocks in the send — backpressure reaches
// the producer instead of growing an unbounded backlog (DESIGN.md §11).
// Saturation is observable: engine.queue_wait histograms the
// submit-to-dequeue latency of every task, and the engine.submitted /
// engine.completed counters expose the in-flight depth as their difference.
//
// The index must not be mutated while an Engine is running over it. Freeze
// the substrate first (e.g. sstree.Freeze) so the workers stream over the
// packed snapshot — the engine works either way, but the frozen path is
// both faster and immune to accidental mutation, since the snapshot is
// immutable.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/knn"
	"hyperdom/internal/obs"
)

// task is one queued query. Results are written in place through out, so
// the batch path allocates nothing per task beyond what the search itself
// returns.
type task struct {
	sq    geom.Sphere
	k     int
	out   *knn.Result
	wg    *sync.WaitGroup
	enqNs int64 // submit time (UnixNano) when obs is on, else 0
}

// Engine is the worker pool. Construct with New; Close releases it.
// SearchBatch and Search are safe for concurrent use from any number of
// goroutines; Close must happen-after every submission.
type Engine struct {
	idx     knn.Index
	crit    dominance.Criterion
	algo    knn.Algorithm
	workers int
	queue   chan task
	done    sync.WaitGroup
	closing sync.Once
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the pool size; n ≤ 0 (and the default) selects
// GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCriterion sets the dominance criterion (default Hyperbola, the exact
// one).
func WithCriterion(c dominance.Criterion) Option {
	return func(e *Engine) { e.crit = c }
}

// WithAlgorithm sets the traversal strategy (default HS).
func WithAlgorithm(a knn.Algorithm) Option {
	return func(e *Engine) { e.algo = a }
}

// queueDepthPerWorker sizes the bounded submission queue: deep enough that
// workers never starve between a batch's sends, shallow enough that a
// stalled pool pushes back on producers within a few queries.
const queueDepthPerWorker = 4

// New starts an engine over the index. The caller owns the returned
// Engine and must Close it to stop the workers.
func New(idx knn.Index, opts ...Option) *Engine {
	e := &Engine{idx: idx, crit: dominance.Hyperbola{}, algo: knn.HS}
	for _, o := range opts {
		o(e)
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.queue = make(chan task, e.workers*queueDepthPerWorker)
	if obs.On() {
		obsEngines.Inc()
		obsWorkers.Add(uint64(e.workers))
	}
	e.done.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
	trackEngine(e)
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// worker drains the queue until Close. Its Searcher — and the scratch
// arena inside — lives for the worker's whole life, so per-query state
// never crosses goroutines and the knn allocation budget holds under any
// worker count.
func (e *Engine) worker() {
	defer e.done.Done()
	s := knn.NewSearcher()
	defer s.Close()
	for t := range e.queue {
		if t.enqNs != 0 {
			histQueueWait.Record(time.Now().UnixNano() - t.enqNs)
		}
		*t.out = s.Search(e.idx, t.sq, t.k, e.crit, e.algo)
		if obs.On() {
			obsCompleted.Inc()
		}
		t.wg.Done()
	}
}

// SearchBatch answers every query with the engine's criterion and strategy
// and returns the results in query order. It blocks until the whole batch
// is done; submission itself blocks whenever the bounded queue is full
// (backpressure). Concurrent batches interleave fairly at query
// granularity.
func (e *Engine) SearchBatch(queries []geom.Sphere, k int) []knn.Result {
	if k <= 0 {
		panic(fmt.Sprintf("engine: k = %d", k))
	}
	results := make([]knn.Result, len(queries))
	if len(queries) == 0 {
		return results
	}
	on := obs.On()
	if on {
		obsBatches.Inc()
		obsSubmitted.Add(uint64(len(queries)))
	}
	var wg sync.WaitGroup
	wg.Add(len(queries))
	for i := range queries {
		var enq int64
		if on {
			enq = time.Now().UnixNano()
		}
		e.queue <- task{sq: queries[i], k: k, out: &results[i], wg: &wg, enqNs: enq}
	}
	wg.Wait()
	return results
}

// Search answers a single query through the pool, blocking until a worker
// picks it up and finishes. Prefer SearchBatch for throughput; Search
// exists so sporadic queries share the workers' warm arenas.
func (e *Engine) Search(sq geom.Sphere, k int) knn.Result {
	if k <= 0 {
		panic(fmt.Sprintf("engine: k = %d", k))
	}
	on := obs.On()
	if on {
		obsSubmitted.Inc()
	}
	var res knn.Result
	var wg sync.WaitGroup
	wg.Add(1)
	var enq int64
	if on {
		enq = time.Now().UnixNano()
	}
	e.queue <- task{sq: sq, k: k, out: &res, wg: &wg, enqNs: enq}
	wg.Wait()
	return res
}

// Criterion returns the dominance criterion the engine answers with.
func (e *Engine) Criterion() dominance.Criterion { return e.crit }

// Algorithm returns the traversal strategy the engine answers with.
func (e *Engine) Algorithm() knn.Algorithm { return e.algo }

// Close stops the workers after the already-queued work drains and waits
// for them to exit. Safe to call more than once; submitting after Close
// panics.
func (e *Engine) Close() {
	e.closing.Do(func() {
		untrackEngine(e)
		close(e.queue)
	})
	e.done.Wait()
}
