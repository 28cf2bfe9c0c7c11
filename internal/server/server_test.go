package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/qserve"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := newTestServerCfg(t, Config{})
	return ts
}

func testGraph(t *testing.T) *graph.MemGraph {
	t.Helper()
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServerCfg(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	return serveGraph(t, testGraph(t), cfg)
}

func serveGraph(t *testing.T, g graph.Graph, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := New(g, cfg)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndStats(t *testing.T) {
	ts := newTestServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	var stats statsBody
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats code %d", code)
	}
	if stats.Nodes != 2000 || stats.Edges != 5400 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts := newTestServer(t)
	for _, m := range []string{"php", "ei", "dht", "tht", "rwr"} {
		var body v1TopKBody
		url := fmt.Sprintf("%s/v1/topk?q=100&k=5&measure=%s", ts.URL, m)
		if code := getJSON(t, url, &body); code != 200 {
			t.Fatalf("%s: code %d", m, code)
		}
		if len(body.Results) != 5 || !body.Exact {
			t.Fatalf("%s: %+v", m, body)
		}
		if body.Visited <= 0 || body.Visited > 2000 {
			t.Fatalf("%s: visited %d", m, body.Visited)
		}
		for _, r := range body.Results {
			if r.Node == 100 {
				t.Fatalf("%s: query in its own results", m)
			}
		}
	}
}

func TestTopKParameters(t *testing.T) {
	ts := newTestServer(t)
	var body v1TopKBody
	url := ts.URL + "/v1/topk?q=100&k=3&measure=php&c=0.8&tau=1e-7&tighten=0"
	if code := getJSON(t, url, &body); code != 200 {
		t.Fatalf("code %d", code)
	}
	if body.K != 3 || body.Measure != "PHP" {
		t.Fatalf("body = %+v", body)
	}
}

func TestUnifiedEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var body v1UnifiedBody
	if code := getJSON(t, ts.URL+"/v1/unified?q=42&k=4", &body); code != 200 {
		t.Fatalf("code %d", code)
	}
	if len(body.PHPFamily) != 4 || len(body.RWR) != 4 || !body.Exact {
		t.Fatalf("body = %+v", body)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []string{
		"/v1/topk",                  // missing q
		"/v1/topk?q=abc",            // bad q
		"/v1/topk?q=999999",         // out of range
		"/v1/topk?q=1&k=0",          // bad k
		"/v1/topk?q=1&k=99999",      // k over cap
		"/v1/topk?q=1&k=x",          // unparsable k
		"/v1/topk?q=1&measure=nope", // unknown measure
		"/v1/topk?q=1&c=2",          // invalid decay (caught by Validate)
		"/v1/topk?q=1&c=x",          // unparsable c
		"/v1/topk?q=1&L=x",          // unparsable L
		"/v1/topk?q=1&tau=x",        // unparsable tau
		"/v1/topk?q=1&tau=0",        // out-of-range tau
		"/v1/topk?q=1&L=-1",         // out-of-range L
		"/v1/unified?q=zz",          // bad unified q
		// /v1/unified must validate identically to /v1/topk.
		"/v1/unified?q=1&k=0",
		"/v1/unified?q=1&k=99999",
		"/v1/unified?q=1&c=2",
		"/v1/unified?q=1&tau=0",
		"/v1/unified?q=999999",
		// Non-finite values parse as floats but must not reach the engine.
		"/v1/topk?q=1&tau=NaN",
		"/v1/topk?q=1&tau=Inf",
		"/v1/topk?q=1&c=NaN",
		"/v1/unified?q=1&tau=NaN",
		"/v1/unified?q=1&tau=Inf",
	}
	for _, c := range cases {
		var e errorBody
		if code := getJSON(t, ts.URL+c, &e); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", c, code)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", c)
		}
	}
}

// TestConcurrentQueries hammers the in-memory server from many goroutines —
// MemGraph reads must be race-free (run with -race in CI). The queue is
// sized above the offered load so a slow single-core run cannot shed
// (shedding has its own tests in internal/qserve).
func TestConcurrentQueries(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := (w*331 + i*17) % 2000
				url := fmt.Sprintf("%s/v1/topk?q=%d&k=5&measure=rwr", ts.URL, q)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("q=%d: status %d", q, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCachedResponses checks the result cache surfaces through HTTP: a
// repeated query is served from cache (cached:true, identical results).
func TestCachedResponses(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{CacheEntries: 64})
	var cold, warm v1TopKBody
	url := ts.URL + "/v1/topk?q=77&k=5&measure=rwr"
	if code := getJSON(t, url, &cold); code != 200 || cold.Cached {
		t.Fatalf("cold: code %d cached %v", code, cold.Cached)
	}
	if code := getJSON(t, url, &warm); code != 200 || !warm.Cached {
		t.Fatalf("warm: code %d cached %v, want cache hit", code, warm.Cached)
	}
	if fmt.Sprintf("%v", warm.Results) != fmt.Sprintf("%v", cold.Results) {
		t.Fatalf("cached results differ: %v vs %v", warm.Results, cold.Results)
	}
}

// TestMetricsEndpoint checks /metrics?format=json reports the qserve
// counters (the bare endpoint now serves Prometheus text).
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{CacheEntries: 64})
	url := ts.URL + "/v1/topk?q=12&k=5"
	for i := 0; i < 3; i++ {
		if code := getJSON(t, url, nil); code != 200 {
			t.Fatalf("warmup query: code %d", code)
		}
	}
	var m metricsDoc
	if code := getJSON(t, ts.URL+"/metrics?format=json", &m); code != 200 {
		t.Fatalf("metrics: code %d", code)
	}
	if m.QueriesServed < 3 {
		t.Errorf("queries_served = %d, want >= 3", m.QueriesServed)
	}
	if m.CacheHits < 2 || m.CacheHitRatio <= 0 {
		t.Errorf("cache hits %d ratio %g, want repeat queries cached", m.CacheHits, m.CacheHitRatio)
	}
	if m.Workers < 1 || m.QueueCap < 1 {
		t.Errorf("pool shape: %+v", m)
	}
	if m.Iterations <= 0 || m.VisitedNodes <= 0 {
		t.Errorf("work totals: iters %d visited %d, want positive", m.Iterations, m.VisitedNodes)
	}
	if lat, ok := m.Measures["php"]; !ok || lat.Count < 1 || lat.P50Micros <= 0 || lat.P99Micros < lat.P50Micros {
		t.Errorf("measures[php] = %+v ok=%v, want count>=1 and 0<p50<=p99", lat, ok)
	}
	if m.Runtime.Goroutines < 1 || m.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime gauges missing: %+v", m.Runtime)
	}
	if m.Disk != nil {
		t.Errorf("disk metrics present for in-memory graph")
	}
}

// TestMetricsPrometheus checks the default /metrics response is valid
// Prometheus text exposition: right content type, one HELP/TYPE pair per
// family, cumulative histogram buckets ending in +Inf, and the counters the
// warmup queries must have moved.
func TestMetricsPrometheus(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{CacheEntries: 64})
	for i := 0; i < 3; i++ {
		if code := getJSON(t, ts.URL+"/v1/topk?q=12&k=5&measure=rwr", nil); code != 200 {
			t.Fatalf("warmup query: code %d", code)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		"# TYPE flos_queries_served_total counter",
		"# TYPE flos_query_latency_seconds histogram",
		`flos_query_latency_seconds_bucket{le="+Inf",measure="rwr"}`,
		`flos_query_latency_seconds_count{measure="rwr"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, `flos_http_request_duration_seconds_bucket{endpoint="/v1/topk"`) {
		t.Errorf("missing per-endpoint http histogram:\n%s", text)
	}
	if !strings.Contains(text, "go_goroutines") || !strings.Contains(text, "go_memstats_heap_alloc_bytes") {
		t.Errorf("missing runtime gauges")
	}

	// Each family gets exactly one TYPE line; samples may interleave freely.
	typeSeen := map[string]int{}
	var servedVal int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typeSeen[f[2]]++
		}
		if strings.HasPrefix(line, "flos_queries_served_total ") {
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			servedVal = v
		}
	}
	for name, n := range typeSeen {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", name, n)
		}
	}
	if servedVal < 3 {
		t.Errorf("flos_queries_served_total = %d, want >= 3", servedVal)
	}

	// Histogram buckets must be cumulative (monotone non-decreasing in le
	// order) and end at _count.
	var prev int64 = -1
	var bucketLines int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `flos_query_latency_seconds_bucket{le=`) || !strings.Contains(line, `measure="rwr"`) {
			continue
		}
		bucketLines++
		v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket sample %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("non-cumulative buckets: %d after %d in %q", v, prev, line)
		}
		prev = v
	}
	if bucketLines < 2 {
		t.Fatalf("only %d rwr bucket samples", bucketLines)
	}
}

// TestTraceEndpoint checks trace=1 returns the per-iteration convergence
// trajectory and that its final entry certifies the stopping rule (the gap
// between the k-th lower bound and the best outsider upper bound is
// nonnegative up to ties) — the paper's Theorem 1 condition, observable.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{CacheEntries: 64})

	var plain v1TopKBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=100&k=5&measure=rwr", &plain); code != 200 {
		t.Fatalf("plain: code %d", code)
	}
	if len(plain.Trace) != 0 {
		t.Fatalf("trace present without trace=1")
	}

	var traced v1TopKBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=100&k=5&measure=rwr&trace=1", &traced); code != 200 {
		t.Fatalf("traced: code %d", code)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("trace=1 returned no trajectory")
	}
	if traced.Cached {
		t.Fatal("traced request served from cache")
	}
	last := traced.Trace[len(traced.Trace)-1]
	if !last.Certified || !last.GapValid {
		t.Fatalf("final entry not certified: %+v", last)
	}
	if last.Gap < -1e-9 {
		t.Fatalf("final gap %g violates stopping rule", last.Gap)
	}
	prevVisited := 0
	for i, it := range traced.Trace {
		if it.Visited < prevVisited {
			t.Fatalf("iter %d: visited shrank %d -> %d", i, prevVisited, it.Visited)
		}
		prevVisited = it.Visited
	}
	if last.Visited != traced.Visited {
		t.Fatalf("trace visited %d != result visited %d", last.Visited, traced.Visited)
	}
	if fmt.Sprintf("%v", traced.Results) != fmt.Sprintf("%v", plain.Results) {
		t.Fatalf("traced results differ from plain: %v vs %v", traced.Results, plain.Results)
	}

	var uni v1UnifiedBody
	if code := getJSON(t, ts.URL+"/v1/unified?q=42&k=4&trace=1", &uni); code != 200 {
		t.Fatalf("unified traced: code %d", code)
	}
	if len(uni.Trace) == 0 {
		t.Fatal("unified trace=1 returned no trajectory")
	}
	ulast := uni.Trace[len(uni.Trace)-1]
	if !ulast.Certified {
		t.Fatalf("unified final entry not certified: %+v", ulast)
	}
}

// TestWriteQueryError is the table-driven outcome map: every pool/engine
// error class must land on its documented status and headers.
func TestWriteQueryError(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantCode   int
		wantHeader string // header that must be non-empty, "" for none
	}{
		{"overloaded", qserve.ErrOverloaded, http.StatusTooManyRequests, "Retry-After"},
		{"deadline", &core.Interrupted{Cause: core.ErrDeadline}, http.StatusGatewayTimeout, ""},
		{"canceled", &core.Interrupted{Cause: core.ErrCanceled}, http.StatusServiceUnavailable, ""},
		{"closed", qserve.ErrClosed, http.StatusServiceUnavailable, ""},
		{"storage", fmt.Errorf("%w: diskgraph: row of node 7: EOF", graph.ErrStorage), http.StatusServiceUnavailable, ""},
		{"other", fmt.Errorf("disk on fire"), http.StatusInternalServerError, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeQueryError(rec, tc.err)
			if rec.Code != tc.wantCode {
				t.Fatalf("code %d, want %d", rec.Code, tc.wantCode)
			}
			if tc.wantHeader != "" && rec.Header().Get(tc.wantHeader) == "" {
				t.Fatalf("missing %s header", tc.wantHeader)
			}
			var e errorBody
			if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("body not a structured error: %v %q", err, e.Error)
			}
		})
	}
}

// TestRequestIDAndAccessLog checks every response carries a request ID and
// each request emits one structured access record with latency and status.
func TestRequestIDAndAccessLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts, _ := newTestServerCfg(t, Config{Logger: logger})

	resp1, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	id1 := resp1.Header.Get("X-Request-ID")
	resp2, err := http.Get(ts.URL + "/v1/topk?q=1&k=0") // 400 path must log too
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	id2 := resp2.Header.Get("X-Request-ID")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("request IDs %q / %q, want distinct non-empty", id1, id2)
	}

	var sawHealth, sawBad bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]interface{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "request" {
			continue
		}
		switch rec["path"] {
		case "/healthz":
			sawHealth = rec["status"] == float64(200) && rec["id"] == id1
		case "/v1/topk":
			sawBad = rec["status"] == float64(400) && rec["id"] == id2
		}
		if _, ok := rec["latency"]; !ok {
			t.Fatalf("access record without latency: %v", rec)
		}
	}
	if !sawHealth || !sawBad {
		t.Fatalf("access records missing: healthz=%v topk400=%v in\n%s", sawHealth, sawBad, buf.String())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestQueryTimeout maps the pool deadline onto 504.
func TestQueryTimeout(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{Timeout: time.Nanosecond, CacheEntries: -1})
	var e errorBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=5&k=3", &e); code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504", code)
	}
	if e.Error == "" {
		t.Fatal("empty error body")
	}
}

// TestSingleWorker checks one-query-at-a-time operation (Workers: 1).
func TestSingleWorker(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{Workers: 1})
	var body v1TopKBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=5&k=3", &body); code != 200 {
		t.Fatalf("code %d", code)
	}
	if len(body.Results) != 3 {
		t.Fatalf("results %d", len(body.Results))
	}
}

// panicGraph panics on the n-th Neighbors read after it is armed, once: a
// search that dies mid-expansion, as on a failed disk row read.
type panicGraph struct {
	graph.Graph
	left atomic.Int32 // reads until the panic; 0 is disarmed
}

func (g *panicGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	if g.left.Load() > 0 && g.left.Add(-1) == 0 {
		panic("panicGraph: row read failed")
	}
	return g.Graph.Neighbors(v)
}

// TestPanickingSearchCostsOneRequest: a search that panics fails its own
// request at the connection (net/http recovers a handler's panic), and the
// server keeps answering on the same slot, exactly.
func TestPanickingSearchCostsOneRequest(t *testing.T) {
	g := testGraph(t)
	pg := &panicGraph{Graph: g}
	srv := New(pg, Config{Workers: 1, CacheEntries: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(srv.Close)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	ts.Start()
	t.Cleanup(ts.Close)

	pg.left.Store(10)
	if resp, err := http.Get(ts.URL + "/v1/topk?q=100&k=5"); err == nil {
		resp.Body.Close()
		t.Fatalf("panicking request answered %d, want a failed connection", resp.StatusCode)
	}
	var body v1TopKBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=200&k=5", &body); code != http.StatusOK {
		t.Fatalf("next request: code %d, want 200", code)
	}
	opt, _, err := srv.options(queryParams{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TopK(g, 200, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != len(want.TopK) || body.Visited != want.Visited || body.Iterations != want.Iterations {
		t.Fatalf("next request: %+v, want %+v", body, want)
	}
	for i, rk := range want.TopK {
		if body.Results[i] != (rankedBody{Node: rk.Node, Score: rk.Score}) {
			t.Errorf("result %d = %+v, want %+v", i, body.Results[i], rk)
		}
	}
}

// nodePanicGraph panics on every row read of one node, as a store whose page
// holding that row cannot be read would.
type nodePanicGraph struct {
	graph.Graph
	bad graph.NodeID
}

func (g nodePanicGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	if v == g.bad {
		panic("nodePanicGraph: row read failed")
	}
	return g.Graph.Neighbors(v)
}

// TestPanickingBatchMemberCostsOneSlot: a batch member whose search panics
// fails only its own slot of a 200, with the panic as its error; the other
// members answer exactly, and the pool's slots all come back, so later
// batches and single queries on every slot still answer.
func TestPanickingBatchMemberCostsOneSlot(t *testing.T) {
	g := testGraph(t)
	const bad = graph.NodeID(100)
	srv := New(nodePanicGraph{g, bad}, Config{Workers: 2, CacheEntries: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	opt, _, err := srv.options(queryParams{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt.CaptureFootprint = true
	// Members whose searches never read the bad node's row.
	var good []graph.NodeID
	want := map[graph.NodeID]*core.Result{}
	for q := graph.NodeID(1000); len(good) < 4; q += 37 {
		res, err := core.TopK(g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.VisitedNodes, bad) {
			good = append(good, q)
			want[q] = res
		}
	}
	body := fmt.Sprintf(`{"k":5,"queries":[%d,%d,%d,%d,%d]}`, good[0], bad, good[1], good[2], good[3])
	for round := range 3 {
		var out v1BatchBody
		if code := postJSON(t, ts.URL+"/v1/topk/batch", body, &out); code != http.StatusOK {
			t.Fatalf("round %d: batch status %d", round, code)
		}
		if out.Errors != 1 {
			t.Fatalf("round %d: %d failed members, want 1", round, out.Errors)
		}
		for _, slot := range out.Results {
			if slot.Query == bad {
				if !strings.Contains(slot.Error, "nodePanicGraph: row read failed") {
					t.Fatalf("round %d: panicking member's error %q", round, slot.Error)
				}
				continue
			}
			w := want[slot.Query]
			if slot.Error != "" || slot.Visited != w.Visited || len(slot.Results) != len(w.TopK) {
				t.Fatalf("round %d q=%d: slot %+v, want %+v", round, slot.Query, slot, w)
			}
			for i, rk := range w.TopK {
				if slot.Results[i] != (rankedBody{Node: rk.Node, Score: rk.Score}) {
					t.Fatalf("round %d q=%d: result %d = %+v, want %+v", round, slot.Query, i, slot.Results[i], rk)
				}
			}
		}
	}
	var single v1TopKBody
	if code := getJSON(t, fmt.Sprintf("%s/v1/topk?q=%d&k=5", ts.URL, good[0]), &single); code != http.StatusOK {
		t.Fatalf("single query after the batches: status %d", code)
	}
}

// TestTruncatedStoreFailsOneQuery: a disk store that loses its last row
// after Open fails the queries that read the page holding it, each with a
// 503 naming the storage failure, on /v1/topk and in its /v1/topk/batch
// slot; a query in the other component still answers, and the failures are
// counted as failed.
func TestTruncatedStoreFailsOneQuery(t *testing.T) {
	// Two disjoint rings, 0..49 and 50..99: the rows of the first lie on
	// pages the truncation leaves whole.
	const ring, n = 50, 100
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		next := v + 1
		if next%ring == 0 {
			next -= ring
		}
		if err := b.AddUnitEdge(graph.NodeID(v), graph.NodeID(next)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.flos")
	if err := diskgraph.Create(path, g, 512); err != nil {
		t.Fatal(err)
	}
	store, err := diskgraph.Open(path, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := os.Truncate(path, store.FileSize()-12*int64(len(g.Targets()[g.Offsets()[n-1]:]))); err != nil {
		t.Fatal(err)
	}
	ts, srv := serveGraph(t, store, Config{Workers: 1, CacheEntries: -1})

	var ok v1TopKBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=5&k=5", &ok); code != http.StatusOK || len(ok.Results) != 5 {
		t.Fatalf("query in the first ring: code %d, %d results", code, len(ok.Results))
	}
	const storageErr = "graph: storage read failed: diskgraph: row of node "
	var e errorBody
	if code := getJSON(t, ts.URL+"/v1/topk?q=98&k=5", &e); code != http.StatusServiceUnavailable || !strings.Contains(e.Error, storageErr) {
		t.Fatalf("query reaching the lost row: code %d, error %q, want 503 with %q", code, e.Error, storageErr)
	}
	var batch v1BatchBody
	if code := postJSON(t, ts.URL+"/v1/topk/batch", `{"k":5,"queries":[5,98]}`, &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if batch.Errors != 1 || batch.Results[0].Error != "" || !strings.Contains(batch.Results[1].Error, storageErr) || batch.Results[1].Status != http.StatusServiceUnavailable {
		t.Fatalf("batch slots %+v, want the second to carry %q with 503", batch.Results, storageErr)
	}
	if m := srv.pool.Metrics(); m.Failed != 2 || m.OK != 2 {
		t.Fatalf("pool counted %d failed and %d ok, want 2 and 2", m.Failed, m.OK)
	}
}
