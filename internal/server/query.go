package server

// The /v1 query API — top-k, unified and batch queries behind one envelope
// that carries the serving mode and the certification block of every answer
// — and the edge-mutation route of a live graph.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
)

// rankedBody is one result entry.
type rankedBody struct {
	Node  graph.NodeID `json:"node"`
	Score float64      `json:"score"`
}

// appendRanked appends a ranking to dst in wire form.
func appendRanked(dst []rankedBody, rs []measure.Ranked) []rankedBody {
	for _, r := range rs {
		dst = append(dst, rankedBody(r))
	}
	return dst
}

// queryParams is the option set shared by the three query routes, in wire
// form: the batch route decodes it from its JSON body, the GET routes fill
// it from the URL. Nil pointers and empty strings mean "omitted"; the routes
// default an omitted K to 10 themselves (a URL k=0 is an error, a JSON one
// is "omitted").
type queryParams struct {
	K        int      `json:"k"`
	Measure  string   `json:"measure"`
	Mode     string   `json:"mode,omitempty"`
	Epsilon  *float64 `json:"epsilon,omitempty"`
	Deadline string   `json:"deadline,omitempty"`
	C        *float64 `json:"c,omitempty"`
	L        *int     `json:"L,omitempty"`
	Tau      *float64 `json:"tau,omitempty"`
}

// floatParam parses the optional float URL parameter name, nil when omitted.
func floatParam(get func(string) string, name string) (*float64, error) {
	v := get(name)
	if v == "" {
		return nil, nil
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return nil, fmt.Errorf("bad %s: %v", name, err)
	}
	return &x, nil
}

// parseQuery reads the URL parameters of a GET query route — q, k, measure,
// c, L, tau, trace, mode, epsilon, deadline — so /v1/topk and
// /v1/unified reject malformed input the same way with a structured 400.
func (s *Server) parseQuery(r *http.Request) (q graph.NodeID, p queryParams, wantTrace bool, err error) {
	get := r.URL.Query().Get
	qi, err := strconv.Atoi(get("q"))
	if err != nil {
		return 0, p, false, fmt.Errorf("missing or bad q: %v", err)
	}
	if qi < 0 || qi >= s.g.NumNodes() {
		return 0, p, false, fmt.Errorf("q=%d outside [0,%d)", qi, s.g.NumNodes())
	}
	p.K = 10
	if v := get("k"); v != "" {
		if p.K, err = strconv.Atoi(v); err != nil {
			return 0, p, false, fmt.Errorf("bad k: %v", err)
		}
	}
	if p.C, err = floatParam(get, "c"); err != nil {
		return 0, p, false, err
	}
	if v := get("L"); v != "" {
		l, err := strconv.Atoi(v)
		if err != nil {
			return 0, p, false, fmt.Errorf("bad L: %v", err)
		}
		p.L = &l
	}
	if p.Tau, err = floatParam(get, "tau"); err != nil {
		return 0, p, false, err
	}
	if p.Epsilon, err = floatParam(get, "epsilon"); err != nil {
		return 0, p, false, err
	}
	if v := get("trace"); v == "1" || strings.EqualFold(v, "true") {
		wantTrace = true
	}
	p.Measure, p.Mode, p.Deadline = get("measure"), get("mode"), get("deadline")
	return graph.NodeID(qi), p, wantTrace, nil
}

// options validates p against the server's caps and builds the engine
// options plus the client-requested deadline (0 = none). Range validation
// happens here (not in the engine) so that errors surfacing later map to 5xx
// statuses. The deadline is clamped (not rejected) at Config.MaxDeadline; an
// epsilon over Config.MaxEpsilon is the client's error and rejected, because
// silently shrinking the budget would change what the response certifies.
func (s *Server) options(p queryParams) (opt core.Options, deadline time.Duration, err error) {
	if p.K < 1 || p.K > s.maxK {
		return opt, 0, fmt.Errorf("k=%d outside [1,%d]", p.K, s.maxK)
	}
	var kind measure.Kind // an omitted measure is PHP, the zero Kind
	if p.Measure != "" {
		if kind, err = measure.ParseKind(p.Measure); err != nil {
			return opt, 0, err
		}
	}
	opt = core.DefaultOptions(kind, p.K)
	if p.C != nil {
		opt.Params.C = *p.C
	}
	if p.L != nil {
		opt.Params.L = *p.L
	}
	if p.Tau != nil {
		opt.Params.Tau = *p.Tau
	}
	if opt.Mode, err = core.ParseMode(p.Mode); err != nil {
		return opt, 0, err
	}
	if p.Epsilon != nil {
		opt.Epsilon = *p.Epsilon
	}
	if opt.Epsilon > 0 && opt.Epsilon > s.maxEpsilon {
		return opt, 0, fmt.Errorf("epsilon=%g exceeds server cap %g", opt.Epsilon, s.maxEpsilon)
	}
	if p.Deadline != "" {
		if deadline, err = time.ParseDuration(p.Deadline); err != nil {
			return opt, 0, fmt.Errorf("bad deadline: %v", err)
		}
		if deadline <= 0 {
			return opt, 0, fmt.Errorf("deadline=%v must be positive", deadline)
		}
	}
	if deadline > s.maxDeadline {
		deadline = s.maxDeadline
	}
	return opt, deadline, opt.Validate()
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

// v1Head opens the GET /v1/topk and /v1/unified envelopes: the query, the
// work counters of its one search and the timing. Measure is the ranked
// measure of /v1/topk; a unified answer ranks two families and omits it.
type v1Head struct {
	APIVersion string       `json:"api_version"`
	Query      graph.NodeID `json:"query"`
	Measure    string       `json:"measure,omitempty"`
	K          int          `json:"k"`
	Exact      bool         `json:"exact"`
	Cached     bool         `json:"cached"`
	Visited    int          `json:"visited"`
	Iterations int          `json:"iterations"`
	Epoch      uint64       `json:"epoch,omitempty"`
	TraceID    string       `json:"trace_id,omitempty"`
	ElapsedUS  int64        `json:"elapsed_us"`
}

// v1TopKBody is the GET /v1/topk response envelope. It always carries the
// certification block — mode, certified flag, the achieved gap, and
// per-node score intervals for the returned k.
type v1TopKBody struct {
	v1Head
	Results       []rankedBody       `json:"results"`
	Certification core.Certification `json:"certification"`
	Trace         []core.IterStats   `json:"trace,omitempty"`
}

// v1UnifiedBody is the GET /v1/unified envelope: both family rankings, each
// with its own certification block (one family can certify before the
// other, and under anytime interruption they can differ).
type v1UnifiedBody struct {
	v1Head
	PHPFamily []rankedBody       `json:"php_family"`
	RWR       []rankedBody       `json:"rwr"`
	PHPCert   core.Certification `json:"php_certification"`
	RWRCert   core.Certification `json:"rwr_certification"`
	Trace     []core.IterStats   `json:"trace,omitempty"`
}

// handleV1Query answers GET /v1/topk, or GET /v1/unified when unified is
// set: the same parameters and the same pool call, answered in the route's
// envelope.
func (s *Server) handleV1Query(unified bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, p, wantTrace, err := s.parseQuery(r)
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		if unified {
			// The unified search runs both families; measure= is not one of
			// its parameters and is ignored like any unknown one.
			p.Measure = ""
		}
		opt, deadline, err := s.options(p)
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		var tc *core.TraceCollector
		if wantTrace {
			tc = &core.TraceCollector{}
			opt.Tracer = tc
		}
		ctx, cancel := withDeadline(r.Context(), deadline)
		defer cancel()
		start := time.Now()
		resp, err := s.pool.Do(ctx, qserve.Request{ID: w.Header().Get("X-Request-ID"), Query: q, Opt: opt, Unified: unified})
		if err != nil {
			writeQueryError(w, err)
			return
		}
		res := resp.TopK
		head := v1Head{
			APIVersion: "v1",
			Query:      q,
			K:          opt.K,
			Exact:      res.Exact,
			Cached:     resp.CacheHit,
			Visited:    res.Visited,
			Iterations: res.Iterations,
			Epoch:      resp.Epoch,
			TraceID:    traceIDOf(r),
			ElapsedUS:  time.Since(start).Microseconds(),
		}
		var iters []core.IterStats
		if tc != nil {
			iters = tc.Iters
		}
		if u := resp.Unified; u != nil {
			writeJSON(w, http.StatusOK, v1UnifiedBody{
				v1Head:    head,
				PHPFamily: appendRanked(nil, res.TopK),
				RWR:       appendRanked(nil, u.RWR),
				PHPCert:   res.Certification,
				RWRCert:   u.RWRCert,
				Trace:     iters,
			})
			return
		}
		head.Measure = opt.Measure.String()
		writeJSON(w, http.StatusOK, v1TopKBody{
			v1Head:        head,
			Results:       appendRanked(make([]rankedBody, 0, len(res.TopK)), res.TopK),
			Certification: res.Certification,
			Trace:         iters,
		})
	}
}

// v1BatchRequestBody is the POST /v1/topk/batch payload: the queries plus
// one option set (serving mode included) shared by every member.
type v1BatchRequestBody struct {
	Queries []graph.NodeID `json:"queries"`
	queryParams
}

// v1BatchSlotBody is one query's slot: results plus its certification, or
// that query's error and the status /v1/topk would have answered it with.
type v1BatchSlotBody struct {
	Query         graph.NodeID        `json:"query"`
	Error         string              `json:"error,omitempty"`
	Status        int                 `json:"status,omitempty"`
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
	Results    []v1BatchSlotBody `json:"results"`
}

// decodeBody decodes the JSON body of a POST route into v, reading at most
// 4096 + 64·MaxBatch bytes — room for any batch or op list within the count
// limit — so an oversized body is refused with 413 instead of being buffered
// and decoded just to fail the count check. Malformed JSON is a 400. It
// reports whether decoding succeeded; on false the response has been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(4096+64*s.maxBatch))).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
	case err != nil:
		badRequest(w, "bad JSON body: %v", err)
	}
	return err == nil
}

// handleV1Batch answers many queries sharing one option set in a single
// round trip. Batch-level mistakes (bad JSON, bad k/measure/params, too
// many queries) are a 400; everything per-query — including an out-of-range
// node, a shed admission, or the client's deadline firing mid-batch — lands
// in that query's slot, so one bad query never poisons its neighbors.
func (s *Server) handleV1Batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	var req v1BatchRequestBody
	if !s.decodeBody(w, r, &req) {
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
	if req.K == 0 {
		req.K = 10
	}
	opt, deadline, err := s.options(req.queryParams)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}

	ctx, cancel := withDeadline(r.Context(), deadline)
	defer cancel()
	start := time.Now()
	resps, errs := s.doBatch(ctx, w.Header().Get("X-Request-ID"), req.Queries, opt)
	body := v1BatchBody{
		APIVersion: "v1",
		Measure:    opt.Measure.String(),
		K:          opt.K,
		Mode:       opt.Mode.String(),
		Count:      len(req.Queries),
		TraceID:    traceIDOf(r),
		ElapsedUS:  time.Since(start).Microseconds(),
		Results:    make([]v1BatchSlotBody, len(req.Queries)),
	}
	for i, q := range req.Queries {
		slot := v1BatchSlotBody{Query: q}
		if errs[i] != nil {
			slot.Error = errs[i].Error()
			slot.Status = queryStatus(errs[i])
			body.Errors++
		} else {
			res := resps[i].TopK
			slot.Exact = res.Exact
			slot.Cached = resps[i].CacheHit
			slot.Visited = res.Visited
			cert := res.Certification
			slot.Certification = &cert
			slot.Results = appendRanked(nil, res.TopK)
		}
		body.Results[i] = slot
	}
	writeJSON(w, http.StatusOK, body)
}

// doBatch answers each query as its own pool.Do call, keeping at most
// s.batchInFlight of them in flight, so a batch alone never fills the
// admission queue. Member i runs under ID "<id>-<i>" (its flight record
// joins back to the access log) and under its own "qserve.slot" span. A
// member shed by other clients' load carries ErrOverloaded; once ctx fires,
// members not yet submitted get a zero-work *core.Interrupted, and a member
// whose storage read fails gets Pool.Do's graph.ErrStorage error like any
// other. The recover guards only against bugs: a member whose search panics
// gets the panic as its error, logged with its stack; Pool.Do has given its
// slot back by then, and the other members and the process carry on. Every
// slot of the result is filled before it returns.
func (s *Server) doBatch(ctx context.Context, id string, queries []graph.NodeID, opt core.Options) ([]*qserve.Response, []error) {
	resps := make([]*qserve.Response, len(queries))
	errs := make([]error, len(queries))
	sem := make(chan struct{}, s.batchInFlight)
	var wg sync.WaitGroup
	for i, q := range queries {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			cause := core.ErrCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				cause = core.ErrDeadline
			}
			for r := i; r < len(queries); r++ {
				errs[r] = &core.Interrupted{Cause: cause}
			}
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("search failed: %v", r)
					s.log.Error("batch member panicked", "id", fmt.Sprintf("%s-%d", id, i), "query", q, "panic", r, "stack", string(debug.Stack()))
				}
			}()
			slotCtx, slot := trace.StartSpan(ctx, "qserve.slot",
				trace.Int("slot", int64(i)), trace.Int("query", int64(q)))
			defer slot.End()
			resps[i], errs[i] = s.pool.Do(slotCtx, qserve.Request{ID: fmt.Sprintf("%s-%d", id, i), Query: q, Opt: opt})
		}()
	}
	wg.Wait()
	return resps, errs
}

// edgeOpBody is one mutation of a POST /v1/graph/edges batch.
type edgeOpBody struct {
	Op string       `json:"op"` // "add" | "remove" | "set"
	U  graph.NodeID `json:"u"`
	V  graph.NodeID `json:"v"`
	W  float64      `json:"w,omitempty"`
}

type graphEdgesRequestBody struct {
	Ops []edgeOpBody `json:"ops"`
}

type graphEdgesBody struct {
	Epoch     uint64 `json:"epoch"`
	Applied   int    `json:"applied"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// handleGraphEdges applies one atomic batch of edge mutations to a live
// graph. The batch publishes a new snapshot and surgically invalidates the
// result cache; in-flight queries keep running against their pinned
// snapshots. Not-live servers answer 409; an invalid batch (bad op name,
// out-of-range node, non-positive weight, add of an existing edge, remove of
// a missing one) is rejected 400 with nothing applied.
func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	if !s.pool.Live() {
		writeJSON(w, http.StatusConflict, errorBody{Error: "graph is not live (start flosd with -live)"})
		return
	}
	var req graphEdgesRequestBody
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		badRequest(w, "ops must be non-empty")
		return
	}
	if len(req.Ops) > s.maxBatch {
		badRequest(w, "batch of %d ops exceeds limit %d", len(req.Ops), s.maxBatch)
		return
	}
	ops := make([]livegraph.EdgeOp, len(req.Ops))
	for i, ob := range req.Ops {
		op, err := livegraph.ParseOp(ob.Op)
		if err != nil {
			badRequest(w, "op %d: %v", i, err)
			return
		}
		ops[i] = livegraph.EdgeOp{Op: op, U: ob.U, V: ob.V, W: ob.W}
	}
	start := time.Now()
	epoch, err := s.pool.MutateCtx(r.Context(), ops)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, graphEdgesBody{
		Epoch:     epoch,
		Applied:   len(ops),
		ElapsedUS: time.Since(start).Microseconds(),
	})
}
