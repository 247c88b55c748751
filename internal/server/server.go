// Package server is the HTTP+JSON front of the sharded index (DESIGN.md
// §13): multi-collection routing over shard.Index values,
// the paper's kNN and dominance queries as POST endpoints, and the obs
// stack (Prometheus /metrics, /debug handlers) mounted beside them.
//
// Endpoints:
//
//	POST /v1/collections/{name}/knn        {"center":[...],"radius":r,"k":k}
//	                                       ?explain=true adds the per-shard
//	                                       trace tree to the response
//	POST /v1/collections/{name}/dominates  {"a":sphere,"b":sphere,"criterion":"Hyperbola"?}
//	GET  /v1/collections                   collection inventory
//	GET  /healthz                          liveness
//	GET  /readyz                           readiness (503 until SetReady)
//	GET  /metrics, /debug/...              obs exposition
//
// Every /v1 request runs through one middleware (DESIGN.md §14): it honors
// or generates an X-Request-ID (echoed on the response), turns a handler's
// panic into a 500, captures the status code, measures latency into the
// per-(collection, endpoint, code)
// hyperdom_server_request_latency_seconds family, counts it in
// hyperdom_server_requests_total{code,endpoint}, emits one structured JSON
// access-log line, and completes the record of a kNN request — the search's
// shard tree — with the request's identity and wall latency before offering
// it, once, to the obs.Slow ring behind /debug/requests.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyperdom/internal/dominance"
	"hyperdom/internal/geom"
	"hyperdom/internal/obs"
	"hyperdom/internal/shard"
)

// inflight counts /v1 requests currently inside a handler, exposed as the
// hyperdom_server_inflight_requests saturation gauge. Process-wide rather
// than per-Server: the gauge answers "how loaded is this process", and test
// servers coexisting briefly only ever add.
var inflight atomic.Int64

func init() {
	obs.RegisterGaugeFunc("server.inflight_requests", "", func() float64 {
		return float64(inflight.Load())
	})
}

// maxBodyBytes bounds request bodies: generous for high-dimensional
// centers, far below anything that could balloon the process.
const maxBodyBytes = 1 << 20

// maxRequestIDLen caps client-supplied X-Request-ID values; anything
// longer (or containing non-printable bytes) is replaced with a generated
// ID rather than echoed into logs.
const maxRequestIDLen = 128

// Server routes requests to named collections. Construct with New, attach
// collections with AddCollection, serve Handler(). Safe for concurrent
// use; Close closes every collection.
type Server struct {
	mu          sync.RWMutex
	collections map[string]*collection

	// Where requests that reach no collection are metered: the inventory
	// endpoint (collection="", as it always was) and requests naming a
	// collection that is not mounted. The latter share one label — a label
	// per name a client can invent would register histograms without bound.
	noCollection, unknown meters

	log      *slog.Logger
	ready    atomic.Bool
	reqSeq   atomic.Uint64
	idPrefix string // "%08x-" of the boot time: generated request IDs are process-unique
}

// collection is one mounted index and the rendered-item cache that lives
// and dies with it (nil when the collection is over fragBudgetBytes).
type collection struct {
	x      *shard.Index
	frags  *fragCache
	meters meters
}

// endpoint indexes the /v1 routes in the meters table.
type endpoint uint8

const (
	epKNN endpoint = iota
	epDominates
	epList
	numEndpoints
)

var endpointNames = [numEndpoints]string{"knn", "dominates", "list"}

// meterCodes are the statuses the /v1 handlers answer with.
var meterCodes = [...]int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
	http.StatusRequestEntityTooLarge, http.StatusInternalServerError}

// meter is where one (collection, endpoint, status) combination is counted
// and timed: hyperdom_server_requests_total{code,endpoint} and the
// hyperdom_server_request_latency_seconds instance.
type meter struct {
	count *obs.Counter
	lat   *obs.Histogram
}

func newMeter(collection string, ep endpoint, status int) *meter {
	code, name := strconv.Itoa(status), endpointNames[ep]
	return &meter{
		count: obs.GetOrNewLabeled("server.requests_total", `code="`+code+`",endpoint="`+name+`"`),
		lat: obs.GetOrNewHistogram("server.request_latency",
			`collection="`+collection+`",endpoint="`+name+`",code="`+code+`"`),
	}
}

// meters holds one collection label's meters, each resolved from the obs
// registry the first time its combination occurs and read lock-free after.
type meters struct {
	label string
	m     [numEndpoints][len(meterCodes)]atomic.Pointer[meter]
}

func (ms *meters) get(ep endpoint, status int) *meter {
	for i, code := range meterCodes {
		if code != status {
			continue
		}
		mt := ms.m[ep][i].Load()
		if mt == nil {
			mt = newMeter(ms.label, ep, status)
			ms.m[ep][i].Store(mt) // a racing resolve stores the same handles
		}
		return mt
	}
	return newMeter(ms.label, ep, status)
}

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the structured access-log destination. The default
// discards log output (library embedders opt in; hyperdomd wires stderr).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// New returns a server with no collections, not yet ready.
func New(opts ...Option) *Server {
	s := &Server{
		collections: make(map[string]*collection),
		unknown:     meters{label: "_unknown"},
		log:         slog.New(slog.NewJSONHandler(discard{}, nil)),
		idPrefix:    fmt.Sprintf("%08x-", uint32(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// SetReady flips the /readyz verdict. hyperdomd calls SetReady(true) once
// every collection has finished building and freezing, so orchestrators
// (and the e2e CI job) can gate traffic on readiness instead of liveness.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current /readyz verdict.
func (s *Server) Ready() bool { return s.ready.Load() }

// AddCollection mounts x under /v1/collections/{name}. The server takes
// ownership: Close closes it. A name that fails shard.CheckName — it is a
// URL segment and a metrics label value — and a duplicate name error.
func (s *Server) AddCollection(name string, x *shard.Index) error {
	if err := shard.CheckName(name); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.collections[name]; dup {
		return fmt.Errorf("server: duplicate collection %q", name)
	}
	s.collections[name] = &collection{x: x, frags: newFragCache(x.Len(), x.Dim()), meters: meters{label: name}}
	return nil
}

// Collections returns the mounted collection names, sorted.
func (s *Server) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for name := range s.collections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close closes every collection, waiting for the searches still running.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, col := range s.collections {
		col.x.Close()
	}
	s.collections = make(map[string]*collection)
	s.ready.Store(false)
}

// Handler returns the full route table, obs exposition included.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/collections/{name}/knn", s.wrap(epKNN, s.handleKNN))
	mux.HandleFunc("POST /v1/collections/{name}/dominates", s.wrap(epDominates, s.handleDominates))
	mux.HandleFunc("GET /v1/collections", s.wrap(epList, s.handleList))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		// Ready stays 200 even under degraded health — the server answers
		// queries, just not at its thresholds; orchestrators that want to
		// shed traffic act on the reported status (or on /debug/health,
		// which turns 503 when unhealthy).
		fmt.Fprintln(w, "ready")
		if hv := obs.Health(); hv.Status != obs.HealthOK {
			fmt.Fprintf(w, "health: %s\n", hv.Status)
			for _, reason := range hv.Reasons {
				fmt.Fprintf(w, "  - %s\n", reason)
			}
		}
	})
	exposition := obs.Handler()
	mux.Handle("/metrics", exposition)
	mux.Handle("/debug/", exposition)
	return mux
}

// reqCtx is the per-request trace context the middleware threads through a
// handler: the response writer (capturing the status code on first write),
// the request identity, the collection the path names (col is nil when it
// is not mounted), and the slot a kNN handler fills so the middleware —
// which alone knows the request's full wall latency — can finish the
// search's telemetry record.
type reqCtx struct {
	http.ResponseWriter
	id         string
	collection string
	col        *collection
	status     int

	// Filled by handleKNN once it has searched: the search's record, which
	// the middleware completes and offers to obs.Slow after the response is
	// written.
	op *shard.Explain
}

func (c *reqCtx) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *reqCtx) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.ResponseWriter.Write(b)
}

// requestID returns the client-supplied X-Request-ID when it is sane, else
// a fresh process-unique ID.
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id != "" && len(id) <= maxRequestIDLen {
		ok := true
		for i := 0; i < len(id); i++ {
			if id[i] < 0x21 || id[i] > 0x7e {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	// "%08x-%06d" of (boot time, sequence number).
	var buf [32]byte
	b := append(buf[:0], s.idPrefix...)
	seq := s.reqSeq.Add(1)
	for pad := uint64(100000); pad > seq; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, seq, 10))
}

// wrap is the /v1 middleware described in the package comment.
func (s *Server) wrap(ep endpoint, h func(*reqCtx, *http.Request)) http.HandlerFunc {
	name := endpointNames[ep]
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		w.Header().Set("X-Request-ID", id)
		c := &reqCtx{ResponseWriter: w, id: id, collection: r.PathValue("name")}
		ms := &s.noCollection
		if ep != epList {
			if c.col = s.lookup(c.collection); c.col != nil {
				ms = &c.col.meters
			} else {
				ms = &s.unknown
			}
		}
		inflight.Add(1)
		// Deferred: a panic that leaves this function (below) must not keep
		// the gauge raised for the life of the process.
		defer inflight.Add(-1)
		start := time.Now()
		// A handler that panics — a search on an Index closed under it — is
		// a failed request like any other: 500 with a JSON body, counted and
		// logged below under its request ID, the connection kept.
		var panicked any
		func() {
			defer func() { panicked = recover() }()
			h(c, r)
		}()
		started := c.status != 0
		var cause slog.Attr // stays empty, which slog drops, unless the handler panicked
		if panicked != nil {
			cause = slog.String("panic", fmt.Sprint(panicked))
			if started {
				c.status = http.StatusInternalServerError // what the meters and the log line say
			} else {
				writeError(c, http.StatusInternalServerError, "internal error: %v", panicked)
			}
		} else if !started {
			c.status = http.StatusOK
		}
		lat := time.Since(start)

		on := obs.On()
		if on {
			mt := ms.get(ep, c.status)
			mt.count.Inc()
			mt.lat.Record(lat.Nanoseconds())
		}

		var shards, visited int
		if op := c.op; op != nil {
			shards, visited = len(op.Shards), op.Visited()
			if on {
				// This middleware started the outermost clock, so it is the
				// one layer that records the operation.
				op.WhenUnixNs, op.RequestNs = start.UnixNano(), lat.Nanoseconds()
				op.RequestID, op.Collection, op.Endpoint, op.Status = id, c.collection, name, c.status
				op.ShardsVisited = visited
				obs.Slow.Record(op)
			}
		}

		level := slog.LevelInfo
		switch {
		case c.status >= 500:
			level = slog.LevelError
		case c.status >= 400:
			level = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("request_id", id),
			slog.String("collection", c.collection),
			slog.String("endpoint", name),
			slog.Int("status", c.status),
			slog.Int("shards", shards),
			slog.Int("shards_visited", visited),
			slog.Int64("latency_ns", lat.Nanoseconds()),
			cause,
		)
		if panicked != nil && started {
			// Part of another answer is already on the wire, so the 500 could
			// not be sent: have net/http drop the connection rather than let
			// the client read a truncated body as whole.
			panic(http.ErrAbortHandler)
		}
	}
}

// lookup returns the mounted collection of that name, or nil.
func (s *Server) lookup(name string) *collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.collections[name]
}

type sphereJSON struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
}

func (sj sphereJSON) sphere() (geom.Sphere, error) {
	s := geom.Sphere{Center: sj.Center, Radius: sj.Radius}
	return s, s.Validate()
}

type knnRequest struct {
	Center []float64 `json:"center"`
	Radius float64   `json:"radius"`
	K      int       `json:"k"`
}

// writeJSON marshals one of the small fixed-shape documents (errors,
// verdicts, the inventory): none holds a value encoding/json can refuse,
// and a failed write means the client has gone, so the error has no reader.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes the capped request body, mapping an over-cap read to
// 413 and any other decode failure to 400.
func decodeBody(c *reqCtx, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(c, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(c, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
		return false
	}
	writeError(c, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

func (s *Server) handleKNN(c *reqCtx, r *http.Request) {
	col := c.col
	if col == nil {
		writeError(c, http.StatusNotFound, "unknown collection %q", c.collection)
		return
	}
	x := col.x
	// Sized for a well-formed query, so decoding does not grow it by doubling.
	req := knnRequest{Center: make([]float64, 0, x.Dim())}
	if !decodeBody(c, r, &req) {
		return
	}
	sq, err := sphereJSON{Center: req.Center, Radius: req.Radius}.sphere()
	if err != nil {
		writeError(c, http.StatusBadRequest, "bad query sphere: %v", err)
		return
	}
	if len(sq.Center) != x.Dim() {
		writeError(c, http.StatusBadRequest, "query dim %d, collection dim %d", len(sq.Center), x.Dim())
		return
	}
	if req.K <= 0 {
		writeError(c, http.StatusBadRequest, "k must be >= 1, got %d", req.K)
		return
	}
	// Always search in explain mode: the shard tree feeds /debug/requests
	// whether or not the client asked to see it, and its cost is two
	// allocations per request — zero per shard. Results are
	// bit-identical to the plain path (test-locked). k is clamped to the
	// collection size — any k ≥ n already answers with the whole collection
	// — so no layer below sizes anything by a client-chosen number.
	k := min(req.K, max(x.Len(), 1))
	res, op := x.SearchExplain(sq, k)
	op.K = k
	c.op = op
	// The shard tree is in the response only under ?explain=true — the
	// answer fields are byte-identical either way.
	var ex *obs.Forest
	if r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "true" {
		ex = &op.Forest
	}
	buf := respBufs.Get().(*[]byte)
	body, err := appendKNNResponse((*buf)[:0], req.K, res, col.frags, ex)
	if err != nil {
		writeError(c, http.StatusInternalServerError, "encode answer: %v", err)
	} else {
		c.Header().Set("Content-Type", "application/json")
		c.WriteHeader(http.StatusOK)
		_, _ = c.Write(body) // a failed write means the client has gone
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		respBufs.Put(buf)
	}
}

type dominatesRequest struct {
	A         sphereJSON `json:"a"`
	B         sphereJSON `json:"b"`
	Q         sphereJSON `json:"q"`
	Criterion string     `json:"criterion"`
}

type dominatesResponse struct {
	Dominates bool   `json:"dominates"`
	Criterion string `json:"criterion"`
}

// handleDominates answers one dominance check DC(a, b, q): does a dominate
// b with respect to the collection-dimensioned query sphere q? The
// collection only anchors the dimensionality check; the verdict is pure
// geometry.
func (s *Server) handleDominates(c *reqCtx, r *http.Request) {
	if c.col == nil {
		writeError(c, http.StatusNotFound, "unknown collection %q", c.collection)
		return
	}
	x := c.col.x
	var req dominatesRequest
	if !decodeBody(c, r, &req) {
		return
	}
	crit := dominance.Criterion(dominance.Hyperbola{})
	if req.Criterion != "" {
		if crit = dominance.ByName(req.Criterion); crit == nil {
			writeError(c, http.StatusBadRequest, "unknown criterion %q", req.Criterion)
			return
		}
	}
	spheres := make([]geom.Sphere, 3)
	for i, sj := range []sphereJSON{req.A, req.B, req.Q} {
		sp, err := sj.sphere()
		if err != nil {
			writeError(c, http.StatusBadRequest, "bad sphere %q: %v", [3]string{"a", "b", "q"}[i], err)
			return
		}
		if len(sp.Center) != x.Dim() {
			writeError(c, http.StatusBadRequest, "sphere %q dim %d, collection dim %d",
				[3]string{"a", "b", "q"}[i], len(sp.Center), x.Dim())
			return
		}
		spheres[i] = sp
	}
	writeJSON(c, http.StatusOK, dominatesResponse{
		Dominates: crit.Dominates(spheres[0], spheres[1], spheres[2]),
		Criterion: crit.Name(),
	})
}

type collectionJSON struct {
	Name   string `json:"name"`
	Items  int    `json:"items"`
	Dim    int    `json:"dim"`
	Shards int    `json:"shards"`
}

func (s *Server) handleList(c *reqCtx, r *http.Request) {
	s.mu.RLock()
	out := make([]collectionJSON, 0, len(s.collections))
	for name, col := range s.collections {
		out = append(out, collectionJSON{Name: name, Items: col.x.Len(), Dim: col.x.Dim(), Shards: col.x.Shards()})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	writeJSON(c, http.StatusOK, map[string]any{"collections": out})
}
