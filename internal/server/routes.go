// Package server exposes FLoS queries over HTTP — the deployment shape a
// downstream user actually wants: load the graph once, answer exact kNN
// queries from many clients.
//
// Endpoints (the route table in this file is the one list of served paths;
// any other path answers 404):
//
//	GET /healthz            liveness
//	GET /stats              graph summary
//	GET /metrics            Prometheus text exposition (latency histograms
//	                        per endpoint and per measure, query/outcome/
//	                        cache/store-row counters, runtime gauges);
//	                        ?format=json returns the JSON snapshot
//	GET /v1/topk?q=42&k=10&measure=rwr[&c=0.5][&L=10][&tau=1e-5][&trace=1]
//	                        top-k query; also mode=exact|epsilon|anytime,
//	                        epsilon=<gap budget> and deadline=<Go duration>.
//	                        The response envelope carries api_version, the
//	                        results, and the certification block (mode,
//	                        certified, achieved gap, per-node score
//	                        intervals). In anytime mode an expiring deadline
//	                        answers 200 with the current top-k and
//	                        certified=false — never 504.
//	GET /v1/unified?q=42&k=10[&c=0.5][&trace=1]
//	                        both measure families from one search (same mode
//	                        parameters); per-family certification blocks
//	POST /v1/topk/batch     {"queries":[1,2,3],"k":10,"measure":"rwr",...}
//	                        answers many queries sharing one option set in a
//	                        single round trip; mode/epsilon/deadline in the
//	                        body apply to every member. The response carries
//	                        one slot per query with either results and their
//	                        certification or that query's error and the
//	                        status /v1/topk would have answered it with
//	                        (400, 429, 503, 504 or 500). Members run
//	                        as single queries, at most min(workers, queue) at
//	                        a time; a member shed by other clients' load and
//	                        the unstarted members of a canceled batch fail
//	                        in their slots instead of failing the call
//	POST /v1/graph/edges    {"ops":[{"op":"add","u":1,"v":5,"w":1.0},...]}
//	                        applies one atomic batch of edge mutations to a
//	                        live graph (flosd -live): a new snapshot is
//	                        published, cached results whose read footprint
//	                        the batch touched are invalidated surgically,
//	                        and the response carries the new epoch; 409 when
//	                        the server is not serving a live graph
//	GET /debug/flos/slow       retained slow-query log (replayable with
//	                           `flos -replay`)
//	GET /debug/flos/flightrec  newest n flight-recorder records (?n=, def. 32)
//	GET /debug/flos/slo        multi-window SLO burn-rate snapshot
//	GET /debug/flos/traces     newest kept traces (?n=, def. 32) with tracer
//	                           counters; ?id=<32-hex trace id> returns that
//	                           trace's full span tree
//	GET /debug/flos/cache      cache-analytics snapshots (miss-ratio curves,
//	                           working-set windows) for a disk store's row
//	                           lookups and the result cache
//
// trace=1 returns the per-iteration convergence trajectory (visited/
// boundary/candidate counts, the certification gap, per-phase timings)
// alongside the results; traced requests bypass the result cache.
//
// All responses are JSON; errors are {"error": "..."} with a 4xx/5xx
// status. A POST body larger than 4096 + 64·MaxBatch bytes is refused with
// 413 before it is read in full. Every response carries an X-Request-ID
// header, and each request emits one structured (log/slog) access record
// with latency and outcome.
// When span tracing is on (Config.Tracer), every request runs under a root
// "server" span: a client traceparent header (W3C Trace Context) is honored
// — its trace continued, its sampling decision respected — and a malformed
// one is rejected with the same structured 400 every endpoint uses. The
// response always echoes a traceparent header carrying the trace ID and the
// boundary span, and the access record carries the trace ID as the join key
// into /debug/flos/traces, the slow-query log, and latency exemplars.
// Query execution is delegated to internal/qserve: each query runs on its
// handler's goroutine while it holds one of the pool's slots, so queries
// run concurrently on every backend (disk-resident stores included — each
// slot holds its own reader view and rows are read without a lock),
// requests beyond the slots and the admission wait are shed with
// 429 + Retry-After, and each query runs under the pool's deadline as well
// as the client's connection context. A single query whose search panics
// fails only its own request: net/http recovers the handler's panic and the
// slot goes back to the pool. A batch member runs on a goroutine doBatch
// starts, which recovers the panic into that member's error.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/graph"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
)

// Server wires a graph to HTTP handlers through a query-serving pool.
type Server struct {
	g     graph.Graph
	store *diskgraph.Store // non-nil for disk-resident graphs: /metrics reads its row-read counters
	pool  *qserve.Pool
	log   *slog.Logger

	// routes is the one list of served paths: Handler registers the mux from
	// it, and httpLat holds one latency histogram per entry — bounded
	// cardinality by construction.
	routes  []route
	httpLat map[string]*obs.Histogram

	// Diagnostics plane (nil when disabled): flight recorder, SLO tracker,
	// and span tracer, shared with the pool.
	rec    *obs.FlightRecorder
	slo    *obs.SLOTracker
	tracer *trace.Tracer

	// resultLens is the result cache's analytics lens (nil when disabled);
	// a disk store's row-lookup lens, when attached, is reached through
	// s.store.
	resultLens *cachelens.Lens

	maxK     int
	maxBatch int
	// batchInFlight bounds the members of one /v1/topk/batch request in
	// flight at once: min(Workers, QueueDepth) of the pool.
	batchInFlight int

	// Serving-mode guardrails for the /v1 endpoints.
	maxEpsilon  float64
	maxDeadline time.Duration
}

// Config tunes the server.
type Config struct {
	// Workers is the number of queries that run at once (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the queries waiting to run (0 = 4×Workers); requests
	// over the bound receive 429 with a Retry-After header.
	QueueDepth int
	// CacheEntries bounds the result cache, in entries of up to 16 result
	// rows (0 = 1024, negative disables).
	CacheEntries int
	// Timeout is the per-query wall-clock budget (0 = none); queries over
	// budget receive 504.
	Timeout time.Duration
	// MaxK caps requested k (0 = 1000).
	MaxK int
	// MaxBatch caps the query count of one /v1/topk/batch request and the op
	// count of one /v1/graph/edges request (0 = 256).
	MaxBatch int
	// MaxEpsilon caps the epsilon parameter of /v1 ε-certified requests
	// (0 = 1.0, negative disables ε mode). Note THT gaps are on the hop
	// scale (up to Params.L), so THT deployments may want a larger cap.
	MaxEpsilon float64
	// MaxDeadline caps the client-requested deadline of /v1 requests; longer
	// requests are clamped, not rejected (0 = 30s).
	MaxDeadline time.Duration
	// Logger receives one structured access record per request, and the
	// server's warnings and errors; nil selects slog.Default().
	Logger *slog.Logger
	// Recorder, when non-nil, is the query flight recorder: the pool records
	// every outcome into it, outliers are promoted into its slow-query log,
	// and GET /debug/flos/slow and /debug/flos/flightrec serve its contents.
	Recorder *obs.FlightRecorder
	// SLO, when non-nil, tracks multi-window availability and latency burn
	// rates, exported as flos_slo_* gauges and GET /debug/flos/slo.
	SLO *obs.SLOTracker
	// Tracer, when non-nil, turns on end-to-end span tracing: every request
	// runs under a root span, W3C traceparent context is honored and echoed,
	// kept traces are served by GET /debug/flos/traces, and trace IDs join
	// the flight recorder, slow-query log, exemplars, and access logs.
	Tracer *trace.Tracer
	// CacheLens, when non-nil, attaches cache analytics to the result cache:
	// miss-ratio curves and working-set windows, exported as
	// flos_result_cache_* gauges and GET /debug/flos/cache. A disk
	// store's row-lookup lens is attached on the store itself
	// (Store.AttachLens) before the server is built; the server discovers
	// it there.
	CacheLens *cachelens.Lens
}

// New builds a Server for g and its query pool; Close shuts the pool.
func New(g graph.Graph, cfg Config) *Server {
	s := &Server{g: g, maxK: cfg.MaxK, maxBatch: cfg.MaxBatch, log: cfg.Logger}
	if s.log == nil {
		s.log = slog.Default()
	}
	if s.maxK == 0 {
		s.maxK = 1000
	}
	if s.maxBatch == 0 {
		s.maxBatch = 256
	}
	s.maxEpsilon = cfg.MaxEpsilon
	if s.maxEpsilon == 0 {
		s.maxEpsilon = 1.0
	}
	s.maxDeadline = cfg.MaxDeadline
	if s.maxDeadline == 0 {
		s.maxDeadline = 30 * time.Second
	}
	if st, ok := g.(*diskgraph.Store); ok {
		s.store = st
	}
	s.routes = []route{
		{"/healthz", s.handleHealth},
		{"/stats", s.handleStats},
		{"/metrics", s.handleMetrics},
		{"/v1/topk", s.handleV1Query(false)},
		{"/v1/topk/batch", s.handleV1Batch},
		{"/v1/unified", s.handleV1Query(true)},
		{"/v1/graph/edges", s.handleGraphEdges},
		{"/debug/flos/slow", s.handleSlow},
		{"/debug/flos/flightrec", s.handleFlightRec},
		{"/debug/flos/slo", s.handleSLO},
		{"/debug/flos/traces", s.handleTraces},
		{"/debug/flos/cache", s.handleCacheLens},
	}
	s.httpLat = make(map[string]*obs.Histogram, len(s.routes))
	for _, rt := range s.routes {
		s.httpLat[rt.path] = &obs.Histogram{}
	}
	s.rec = cfg.Recorder
	s.slo = cfg.SLO
	s.tracer = cfg.Tracer
	s.resultLens = cfg.CacheLens
	s.pool = qserve.New(g, qserve.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.QueueDepth,
		CacheEntries: cfg.CacheEntries,
		Timeout:      cfg.Timeout,
		Recorder:     cfg.Recorder,
		SLO:          cfg.SLO,
		CacheLens:    cfg.CacheLens,
	})
	pm := s.pool.Metrics()
	s.batchInFlight = min(pm.Workers, pm.QueueCap)
	return s
}

// route is one served path and its handler.
type route struct {
	path    string
	handler http.HandlerFunc
}

// Pool exposes the serving pool (mutations, metrics).
func (s *Server) Pool() *qserve.Pool { return s.pool }

// Close shuts the query pool: waiting queries get ErrClosed (503), and
// Close returns once the running ones have answered.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the HTTP routing table wrapped in the observability
// middleware (request IDs, access logs, per-endpoint latency histograms).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes {
		mux.HandleFunc(rt.path, rt.handler)
	}
	return s.instrument(mux)
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceStatus maps the HTTP status the handler wrote onto the trace outcome
// the tail sampler keys on: 429 is a shed admission, 504 a deadline, any
// other 5xx a failure.
func traceStatus(httpStatus int) string {
	switch {
	case httpStatus == http.StatusTooManyRequests:
		return "shed"
	case httpStatus == http.StatusGatewayTimeout:
		return "deadline"
	case httpStatus >= 500:
		return "failed"
	default:
		return "ok"
	}
}

// instrument assigns each request an ID (echoed in X-Request-ID), opens the
// request's trace at the W3C boundary, times it into the per-endpoint
// histogram, and emits one structured access record.
//
// The traceparent header is validated whether or not tracing is on — a
// malformed value is the client's error and gets the same structured 400 on
// every endpoint. A valid inbound header continues the caller's trace (its
// sampled flag honored); with the tracer disabled it is simply echoed back,
// so callers can rely on the header round-tripping either way.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()

		var parent trace.TraceParent
		var parentErr error
		if hv := r.Header.Get(trace.Header); hv != "" {
			parent, parentErr = trace.ParseTraceparent(hv)
		}
		var a *trace.Active
		var root *trace.SpanHandle
		if parentErr == nil {
			a = s.tracer.StartRequest(parent)
			if a != nil {
				root = a.StartSpan(a.RemoteParent(), r.Method+" "+r.URL.Path,
					trace.Str("request_id", id))
				root.SetKind("server")
				w.Header().Set(trace.Header, trace.TraceParent{
					Trace: a.TraceID(), Span: root.ID(), Sampled: a.HeadSampled(),
				}.String())
				r = r.WithContext(trace.NewContext(r.Context(), a, root.ID()))
			} else if !parent.IsZero() {
				// Tracer off: round-trip the validated client value untouched.
				w.Header().Set(trace.Header, r.Header.Get(trace.Header))
			}
		}

		if parentErr != nil {
			badRequest(sw, "bad traceparent: %v", parentErr)
		} else {
			next.ServeHTTP(sw, r)
		}
		elapsed := time.Since(start)
		root.SetAttrs(trace.Int("http.status", int64(sw.status)))
		root.End()
		a.Finish(traceStatus(sw.status))
		if h, ok := s.httpLat[r.URL.Path]; ok {
			h.Observe(elapsed)
		}
		logAttrs := []any{
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", sw.status,
			"latency", elapsed,
		}
		if a != nil {
			logAttrs = append(logAttrs, "trace", a.TraceIDString())
		}
		s.log.Info("request", logAttrs...)
	})
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func badRequest(w http.ResponseWriter, format string, args ...interface{}) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(format, args...)})
}

// queryStatus maps a pool/engine error onto an HTTP status via the typed
// sentinels (errors.Is): invalid options or query node → 400, overload →
// 429, deadline → 504, cancellation/shutdown or a failed storage read →
// 503, anything else → 500. A failed /v1/topk answers with it and a failed
// batch member's slot carries it.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidOptions), errors.Is(err, core.ErrInvalidQuery):
		return http.StatusBadRequest
	case errors.Is(err, qserve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrCanceled), errors.Is(err, qserve.ErrClosed), errors.Is(err, graph.ErrStorage):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeQueryError answers a failed query with its queryStatus; an overload
// also carries Retry-After.
func writeQueryError(w http.ResponseWriter, err error) {
	status, msg := queryStatus(err), err.Error()
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
		msg = "server overloaded, retry later"
	}
	writeJSON(w, status, errorBody{Error: msg})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type statsBody struct {
	Nodes int   `json:"nodes"`
	Edges int64 `json:"edges"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, statsBody{Nodes: s.g.NumNodes(), Edges: s.g.NumEdges()})
}
