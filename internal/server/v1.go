package server

// The versioned /v1 query API: the same engine behind a unified envelope
// that carries the serving mode and the certification block of every answer.
// The unversioned routes stay as deprecated aliases (see deprecated); only
// /v1 accepts the mode/epsilon/deadline parameters.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/measure"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
)

// legacyPath pairs one deprecated unversioned route with its /v1 successor,
// advertised in the Link response header per RFC 8594.
type legacyPath struct {
	path      string
	successor string
}

// legacyPaths enumerates the deprecated routes, in the stable order the
// Prometheus exposition emits their counters.
var legacyPaths = []legacyPath{
	{"/topk", "/v1/topk"},
	{"/topk/batch", "/v1/topk/batch"},
	{"/unified", "/v1/unified"},
	{"/graph/edges", "/v1/graph/edges"},
}

// deprecated wraps a legacy handler: behavior is byte-for-byte the old
// contract, but every response carries a Deprecation header pointing at the
// /v1 successor and the hit lands in flos_legacy_requests_total.
func (s *Server) deprecated(path string, h http.HandlerFunc) http.HandlerFunc {
	successor := ""
	for _, lp := range legacyPaths {
		if lp.path == path {
			successor = lp.successor
		}
	}
	ctr := s.legacyReq[path]
	return func(w http.ResponseWriter, r *http.Request) {
		ctr.Add(1)
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", "<"+successor+`>; rel="successor-version"`)
		h(w, r)
	}
}

// servingMode is the parsed mode/epsilon/deadline tuple of a /v1 request.
type servingMode struct {
	mode     core.Mode
	epsilon  float64
	deadline time.Duration
}

// parseServingMode validates the /v1 serving-mode parameters. The deadline
// is clamped (not rejected) at Config.MaxDeadline; an epsilon over
// Config.MaxEpsilon is the client's error and rejected, because silently
// shrinking the budget would change what the response certifies.
func (s *Server) parseServingMode(get func(string) string) (servingMode, error) {
	var sm servingMode
	mode, err := core.ParseMode(get("mode"))
	if err != nil {
		return sm, err
	}
	sm.mode = mode
	if v := get("epsilon"); v != "" {
		if sm.epsilon, err = strconv.ParseFloat(v, 64); err != nil {
			return sm, fmt.Errorf("bad epsilon: %v", err)
		}
	}
	if sm.epsilon > 0 && sm.epsilon > s.maxEpsilon {
		return sm, fmt.Errorf("epsilon=%g exceeds server cap %g", sm.epsilon, s.maxEpsilon)
	}
	if v := get("deadline"); v != "" {
		if sm.deadline, err = time.ParseDuration(v); err != nil {
			return sm, fmt.Errorf("bad deadline: %v", err)
		}
		if sm.deadline <= 0 {
			return sm, fmt.Errorf("deadline=%v must be positive", sm.deadline)
		}
	}
	if sm.deadline > s.maxDeadline {
		sm.deadline = s.maxDeadline
	}
	return sm, nil
}

// withDeadline applies a client-requested deadline to the request context.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// traceIDOf returns the request's trace ID when it ran under span tracing.
func traceIDOf(r *http.Request) string {
	if a, _ := trace.FromContext(r.Context()); a != nil {
		return a.TraceIDString()
	}
	return ""
}

// v1TopKBody is the GET /v1/topk response envelope. Unlike the legacy body
// it always carries the certification block — mode, certified flag, the
// achieved gap, and per-node score intervals for the returned k.
type v1TopKBody struct {
	APIVersion    string             `json:"api_version"`
	Query         graph.NodeID       `json:"query"`
	Measure       string             `json:"measure"`
	K             int                `json:"k"`
	Exact         bool               `json:"exact"`
	Cached        bool               `json:"cached"`
	Visited       int                `json:"visited"`
	Iterations    int                `json:"iterations"`
	Epoch         uint64             `json:"epoch,omitempty"`
	TraceID       string             `json:"trace_id,omitempty"`
	ElapsedUS     int64              `json:"elapsed_us"`
	Results       []rankedBody       `json:"results"`
	Certification core.Certification `json:"certification"`
	Trace         []core.IterStats   `json:"trace,omitempty"`
}

func (s *Server) handleV1TopK(w http.ResponseWriter, r *http.Request) {
	q, k, p, tighten, wantTrace, err := s.parseCommon(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	kind, err := parseMeasure(r.URL.Query().Get("measure"))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	sm, err := s.parseServingMode(r.URL.Query().Get)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	opt := core.Options{
		K: k, Measure: kind, Params: p, Tighten: tighten, TieEps: 1e-9,
		Mode: sm.mode, Epsilon: sm.epsilon,
	}
	if err := opt.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}
	var tc *core.TraceCollector
	if wantTrace {
		tc = &core.TraceCollector{}
		opt.Tracer = tc
	}
	ctx, cancel := withDeadline(r.Context(), sm.deadline)
	defer cancel()
	start := time.Now()
	resp, err := s.pool.Do(ctx, qserve.Request{ID: w.Header().Get("X-Request-ID"), Query: q, Opt: opt})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	res := resp.TopK
	body := v1TopKBody{
		APIVersion:    "v1",
		Query:         q,
		Measure:       kind.String(),
		K:             k,
		Exact:         res.Exact,
		Cached:        resp.CacheHit,
		Visited:       res.Visited,
		Iterations:    res.Iterations,
		Epoch:         resp.Epoch,
		TraceID:       traceIDOf(r),
		ElapsedUS:     time.Since(start).Microseconds(),
		Results:       make([]rankedBody, 0, len(res.TopK)),
		Certification: res.Certification,
	}
	if tc != nil {
		body.Trace = tc.Iters
	}
	for _, rk := range res.TopK {
		body.Results = append(body.Results, rankedBody{Node: rk.Node, Score: rk.Score})
	}
	writeJSON(w, http.StatusOK, body)
}

// v1UnifiedBody is the GET /v1/unified envelope: both family rankings, each
// with its own certification block (one family can certify before the
// other, and under anytime interruption they can differ).
type v1UnifiedBody struct {
	APIVersion string             `json:"api_version"`
	Query      graph.NodeID       `json:"query"`
	K          int                `json:"k"`
	Exact      bool               `json:"exact"`
	Cached     bool               `json:"cached"`
	Visited    int                `json:"visited"`
	Iterations int                `json:"iterations"`
	Epoch      uint64             `json:"epoch,omitempty"`
	TraceID    string             `json:"trace_id,omitempty"`
	ElapsedUS  int64              `json:"elapsed_us"`
	PHPFamily  []rankedBody       `json:"php_family"`
	RWR        []rankedBody       `json:"rwr"`
	PHPCert    core.Certification `json:"php_certification"`
	RWRCert    core.Certification `json:"rwr_certification"`
	Trace      []core.IterStats   `json:"trace,omitempty"`
}

func (s *Server) handleV1Unified(w http.ResponseWriter, r *http.Request) {
	q, k, p, tighten, wantTrace, err := s.parseCommon(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	sm, err := s.parseServingMode(r.URL.Query().Get)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	opt := core.Options{
		K: k, Measure: measure.PHP, Params: p, Tighten: tighten, TieEps: 1e-9,
		Mode: sm.mode, Epsilon: sm.epsilon,
	}
	if err := opt.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}
	var tc *core.TraceCollector
	if wantTrace {
		tc = &core.TraceCollector{}
		opt.Tracer = tc
	}
	ctx, cancel := withDeadline(r.Context(), sm.deadline)
	defer cancel()
	start := time.Now()
	resp, err := s.pool.Do(ctx, qserve.Request{ID: w.Header().Get("X-Request-ID"), Query: q, Opt: opt, Unified: true})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	res := resp.Unified
	body := v1UnifiedBody{
		APIVersion: "v1",
		Query:      q,
		K:          k,
		Exact:      res.Exact,
		Cached:     resp.CacheHit,
		Visited:    res.Visited,
		Iterations: res.Iterations,
		Epoch:      resp.Epoch,
		TraceID:    traceIDOf(r),
		ElapsedUS:  time.Since(start).Microseconds(),
		PHPCert:    res.PHPCert,
		RWRCert:    res.RWRCert,
	}
	if tc != nil {
		body.Trace = tc.Iters
	}
	for _, rk := range res.PHPFamily {
		body.PHPFamily = append(body.PHPFamily, rankedBody{Node: rk.Node, Score: rk.Score})
	}
	for _, rk := range res.RWR {
		body.RWR = append(body.RWR, rankedBody{Node: rk.Node, Score: rk.Score})
	}
	writeJSON(w, http.StatusOK, body)
}

// v1BatchRequestBody is the POST /v1/topk/batch payload: the legacy fields
// plus the serving mode shared by every member.
type v1BatchRequestBody struct {
	Queries  []graph.NodeID `json:"queries"`
	K        int            `json:"k"`
	Measure  string         `json:"measure"`
	Mode     string         `json:"mode,omitempty"`
	Epsilon  float64        `json:"epsilon,omitempty"`
	Deadline string         `json:"deadline,omitempty"`
	C        *float64       `json:"c,omitempty"`
	L        *int           `json:"L,omitempty"`
	Tau      *float64       `json:"tau,omitempty"`
	Tighten  *bool          `json:"tighten,omitempty"`
}

// v1BatchItemBody is one query's slot: results plus its certification, or
// that query's error.
type v1BatchItemBody struct {
	Query         graph.NodeID        `json:"query"`
	Error         string              `json:"error,omitempty"`
	Exact         bool                `json:"exact,omitempty"`
	Cached        bool                `json:"cached,omitempty"`
	Visited       int                 `json:"visited,omitempty"`
	Results       []rankedBody        `json:"results,omitempty"`
	Certification *core.Certification `json:"certification,omitempty"`
}

type v1BatchBody struct {
	APIVersion string            `json:"api_version"`
	Measure    string            `json:"measure"`
	K          int               `json:"k"`
	Mode       string            `json:"mode"`
	Count      int               `json:"count"`
	Errors     int               `json:"errors"`
	TraceID    string            `json:"trace_id,omitempty"`
	ElapsedUS  int64             `json:"elapsed_us"`
	Results    []v1BatchItemBody `json:"results"`
}

func (s *Server) handleV1TopKBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var req v1BatchRequestBody
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		badRequest(w, "bad JSON body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, "queries must be non-empty")
		return
	}
	if len(req.Queries) > s.maxBatch {
		badRequest(w, "batch of %d queries exceeds limit %d", len(req.Queries), s.maxBatch)
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k < 1 || k > s.maxK {
		badRequest(w, "k=%d outside [1,%d]", k, s.maxK)
		return
	}
	kind, err := parseMeasure(req.Measure)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	sm, err := s.parseServingMode(func(key string) string {
		switch key {
		case "mode":
			return req.Mode
		case "epsilon":
			if req.Epsilon == 0 {
				return ""
			}
			return strconv.FormatFloat(req.Epsilon, 'g', -1, 64)
		case "deadline":
			return req.Deadline
		}
		return ""
	})
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	p := s.defaults
	if req.C != nil {
		p.C = *req.C
	}
	if req.L != nil {
		p.L = *req.L
	}
	if req.Tau != nil {
		p.Tau = *req.Tau
	}
	tighten := true
	if req.Tighten != nil {
		tighten = *req.Tighten
	}
	opt := core.Options{
		K: k, Measure: kind, Params: p, Tighten: tighten, TieEps: 1e-9,
		Mode: sm.mode, Epsilon: sm.epsilon,
	}
	if err := opt.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}

	id := w.Header().Get("X-Request-ID")
	reqs := make([]qserve.Request, len(req.Queries))
	for i, q := range req.Queries {
		reqs[i] = qserve.Request{ID: fmt.Sprintf("%s-%d", id, i), Query: q, Opt: opt}
	}
	ctx, cancel := withDeadline(r.Context(), sm.deadline)
	defer cancel()
	start := time.Now()
	items := s.pool.DoBatch(ctx, reqs)
	body := v1BatchBody{
		APIVersion: "v1",
		Measure:    kind.String(),
		K:          k,
		Mode:       sm.mode.String(),
		Count:      len(items),
		TraceID:    traceIDOf(r),
		ElapsedUS:  time.Since(start).Microseconds(),
		Results:    make([]v1BatchItemBody, len(items)),
	}
	for i, it := range items {
		slot := v1BatchItemBody{Query: req.Queries[i]}
		if it.Err != nil {
			slot.Error = it.Err.Error()
			body.Errors++
		} else {
			res := it.Resp.TopK
			slot.Exact = res.Exact
			slot.Cached = it.Resp.CacheHit
			slot.Visited = res.Visited
			cert := res.Certification
			slot.Certification = &cert
			for _, rk := range res.TopK {
				slot.Results = append(slot.Results, rankedBody{Node: rk.Node, Score: rk.Score})
			}
		}
		body.Results[i] = slot
	}
	writeJSON(w, http.StatusOK, body)
}
