package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checker judges every response: expected status, the dominance verdict,
// and — because the server is deterministic — byte equality of the answer
// with the first answer ever given to the same body.
type checker struct {
	reqs  []request
	first []atomic.Uint64 // fingerprint of the first answer, 0 = none yet
}

func newChecker(reqs []request) *checker {
	return &checker{reqs: reqs, first: make([]atomic.Uint64, len(reqs))}
}

// answerPart is the prefix of a response that must repeat exactly. A kNN
// response ends with "stats" (and "explain"), which count traversal work
// that legitimately varies with cross-shard pushdown timing; everything
// before — k, ids, items — is the answer.
func answerPart(kind opKind, body []byte) []byte {
	if kind == opKNN || kind == opKNNLargeK || kind == opExplain {
		if i := bytes.Index(body, []byte(`,"stats":`)); i >= 0 {
			return body[:i]
		}
	}
	return body
}

func fingerprint(b []byte) uint64 {
	return 1<<63 | uint64(len(b)&0x7fffffff)<<32 | uint64(crc32.Checksum(b, castagnoli))
}

// ok reports whether the response to request i is acceptable.
func (c *checker) ok(i, status int, body []byte) bool {
	r := &c.reqs[i]
	if status != r.status {
		return false
	}
	if r.kind == opDominates {
		want := []byte(`"dominates":false`)
		if r.want {
			want = []byte(`"dominates":true`)
		}
		if !bytes.Contains(body, want) {
			return false
		}
	}
	fp := fingerprint(answerPart(r.kind, body))
	if c.first[i].CompareAndSwap(0, fp) {
		return true
	}
	return c.first[i].Load() == fp
}

// conn is one load-generating goroutine's HTTP state: a reused response
// buffer over the shared keep-alive transport.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// newHTTPClient returns a client that keeps up to conns idle keep-alive
// connections to the one host under test.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one operation and returns the status and body (valid until the
// next call on this conn).
func (c *conn) do(r *request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// tally counts operations for the attempted/failed contract.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) note(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

// loopResult is one closed-loop window.
type loopResult struct {
	latMs  []float64 // successful requests, pooled over the window
	doneAt []float64 // their completion times, seconds since the window opened
	span   float64   // window length in seconds
}

// closedLoop drives conns keep-alive connections, each sending its next
// request only after the previous answer arrived, for dur. Requests cycle
// through the checker's list from a shared cursor.
func closedLoop(base string, hc *http.Client, chk *checker, tl *tally, conns int, dur time.Duration, cursor *atomic.Uint64) loopResult {
	type sample struct{ lat, done float64 }
	per := make([][]sample, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &conn{hc: hc, base: base}
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				i := int((cursor.Add(1) - 1) % uint64(len(chk.reqs)))
				status, body, err := c.do(&chk.reqs[i])
				t1 := time.Now()
				ok := err == nil && chk.ok(i, status, body)
				tl.note(ok)
				if ok {
					per[w] = append(per[w], sample{t1.Sub(t0).Seconds() * 1e3, t1.Sub(start).Seconds()})
				}
			}
		}(w)
	}
	wg.Wait()
	res := loopResult{span: dur.Seconds()}
	for _, s := range per {
		for _, x := range s {
			res.latMs = append(res.latMs, x.lat)
			res.doneAt = append(res.doneAt, x.done)
		}
	}
	return res
}

// openResult is one open-loop step.
type openResult struct {
	latMs      []float64 // completion − due time, every request
	lateMs     []float64 // send − due time: how late the generator ran
	scheduled  int
	backlogEnd int // due but unanswered when the step's time ran out
	failed     int
}

// openLoop offers `rate` requests per second for dur on a fixed schedule,
// regardless of how fast answers come back. Each request is timed from
// the instant it was DUE, not from when a worker got round to sending it,
// so a stall charges every request it delayed (no coordinated omission).
// do performs scheduled request i and reports whether it succeeded.
func openLoop(do func(worker, i int) bool, rate float64, dur time.Duration, workers int) openResult {
	n := int(rate * dur.Seconds())
	res := openResult{scheduled: n, latMs: make([]float64, n), lateMs: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	end := start.Add(dur)
	// Sized to every send, so the scheduler never blocks on busy workers.
	due := make(chan int, n)
	var completedInTime, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range due {
				dueAt := start.Add(time.Duration(i) * interval)
				res.lateMs[i] = time.Since(dueAt).Seconds() * 1e3
				ok := do(w, i)
				done := time.Now()
				res.latMs[i] = done.Sub(dueAt).Seconds() * 1e3
				if !ok {
					failed.Add(1)
				}
				if done.Before(end) {
					completedInTime.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	res.failed = int(failed.Load())
	res.backlogEnd = n - int(completedInTime.Load())
	return res
}

// stepOK is the ladder's pass rule: the tail latency from due time meets
// the limit, and the backlog left at the end of the step is no more than
// the offered rate could legitimately have in flight within that limit
// (Little's law) — i.e. the queue was not growing.
func stepOK(r openResult, tailMs, limitMs, rate float64) bool {
	return r.failed == 0 && tailMs <= limitMs && float64(r.backlogEnd) <= rate*limitMs/1e3+1
}

// idsOf extracts the "ids" array of a kNN response.
func idsOf(body []byte) ([]int, error) {
	var resp struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("kNN response: %w", err)
	}
	sort.Ints(resp.IDs)
	return resp.IDs, nil
}
