package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/qserve"
)

func postJSON(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", buf.String(), err)
		}
	}
	return resp.StatusCode
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// postCounting POSTs body straight to the handler — no network, so only the
// handler reads it — and returns the status, the decoded error body (empty
// on a 200) and how many body bytes the handler consumed.
func postCounting(t *testing.T, h http.Handler, path, body string) (int, errorBody, int64) {
	t.Helper()
	cr := &countingReader{r: strings.NewReader(body)}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, cr))
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return rec.Code, eb, cr.n
}

// TestTopKBatchHappyPath: a batch answer must agree slot by slot with the
// single-query endpoint.
func TestTopKBatchHappyPath(t *testing.T) {
	ts := newTestServer(t)
	var body v1BatchBody
	code := postJSON(t, ts.URL+"/v1/topk/batch",
		`{"queries":[1,500,1999],"measure":"rwr","k":5}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if body.Count != 3 || body.Errors != 0 || len(body.Results) != 3 {
		t.Fatalf("count=%d errors=%d len=%d, want 3/0/3", body.Count, body.Errors, len(body.Results))
	}
	for i, q := range []int{1, 500, 1999} {
		slot := body.Results[i]
		if int(slot.Query) != q || slot.Error != "" || !slot.Exact || len(slot.Results) != 5 {
			t.Fatalf("slot %d: %+v", i, slot)
		}
		var single v1TopKBody
		if code := getJSON(t, fmt.Sprintf("%s/v1/topk?q=%d&measure=rwr&k=5", ts.URL, q), &single); code != http.StatusOK {
			t.Fatalf("single query %d: status %d", q, code)
		}
		if !reflect.DeepEqual(slot.Results, single.Results) {
			t.Fatalf("q=%d: batch ranking %v != single ranking %v", q, slot.Results, single.Results)
		}
	}
}

// TestTopKBatchPerQueryError: an out-of-range node fails its own slot, with
// the 400 /v1/topk would have answered, in a 200 response; its neighbors
// still get answers.
func TestTopKBatchPerQueryError(t *testing.T) {
	ts := newTestServer(t)
	var body v1BatchBody
	code := postJSON(t, ts.URL+"/v1/topk/batch",
		`{"queries":[3,1000000],"measure":"php","k":3}`, &body)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if body.Errors != 1 {
		t.Fatalf("errors=%d, want 1", body.Errors)
	}
	if body.Results[0].Error != "" || body.Results[0].Status != 0 || len(body.Results[0].Results) != 3 {
		t.Fatalf("good slot poisoned: %+v", body.Results[0])
	}
	if body.Results[1].Error == "" || body.Results[1].Status != http.StatusBadRequest || len(body.Results[1].Results) != 0 {
		t.Fatalf("bad slot did not fail: %+v", body.Results[1])
	}
}

// TestTopKBatchCached: repeating a batch serves the slots from the result
// cache.
func TestTopKBatchCached(t *testing.T) {
	ts := newTestServer(t)
	const req = `{"queries":[7,8],"measure":"ei","k":4}`
	var first, second v1BatchBody
	if code := postJSON(t, ts.URL+"/v1/topk/batch", req, &first); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/topk/batch", req, &second); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Errorf("slot %d not cached on repeat", i)
		}
		if !reflect.DeepEqual(first.Results[i].Results, second.Results[i].Results) {
			t.Errorf("slot %d: cached ranking differs", i)
		}
	}
}

// TestTopKBatchBadRequests: batch-level mistakes are rejected wholesale.
func TestTopKBatchBadRequests(t *testing.T) {
	ts, srv := newTestServerCfg(t, Config{MaxBatch: 4})
	const bodyLimit = 4096 + 64*4
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{"queries":`, 400},
		{"empty queries", `{"queries":[]}`, 400},
		{"over max batch", `{"queries":[1,2,3,4,5]}`, 400},
		{"bad measure", `{"queries":[1],"measure":"nope"}`, 400},
		{"bad k", `{"queries":[1],"k":-2}`, 400},
		{"bad params", `{"queries":[1],"measure":"rwr","c":1.5}`, 400},
		{"non-finite tau", `{"queries":[1],"tau":1e999}`, 400},
		// A 1 MiB body is refused by size, not buffered and decoded first.
		{"over body limit", `{"queries":[` + strings.Repeat("1,", 1<<19) + `1]}`, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, eb, read := postCounting(t, srv.Handler(), "/v1/topk/batch", tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d (error %q)", code, tc.want, eb.Error)
			}
			if eb.Error == "" {
				t.Fatalf("%d without an error message", code)
			}
			if read > bodyLimit+1 {
				t.Fatalf("handler read %d body bytes, limit is %d", read, bodyLimit)
			}
		})
	}

	// Wrong method: GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/topk/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

// gateGraph blocks every Neighbors call until gate closes, signalling entry:
// a deterministic way to hold the pool's workers busy.
type gateGraph struct {
	graph.Graph
	gate    chan struct{}
	entered chan struct{}
}

func (g *gateGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.Graph.Neighbors(v)
}

// yieldGraph yields the processor on every Neighbors call, so concurrent
// submitters run while workers hold queries, as they would under real load.
type yieldGraph struct{ graph.Graph }

func (g yieldGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	runtime.Gosched()
	return g.Graph.Neighbors(v)
}

// TestV1BatchOverDo covers what a batch guarantees now that its members are
// single pool.Do calls: the fan-out respects the admission queue, every slot
// is filled whatever the deadline, the pool's closed and overloaded states,
// and never hangs the request.
func TestV1BatchOverDo(t *testing.T) {
	queries := func(n, step int) string {
		qs := make([]string, n)
		for i := range qs {
			qs[i] = strconv.Itoa(i * step % 2000)
		}
		return strings.Join(qs, ",")
	}
	allMeasures := []string{"php", "ei", "dht", "tht", "rwr"}
	matchesSingles := func(t *testing.T, ts *httptest.Server, measure string, body v1BatchBody) {
		for i, slot := range body.Results {
			if slot.Error != "" {
				t.Fatalf("%s slot %d: %s", measure, i, slot.Error)
			}
			var single v1TopKBody
			url := fmt.Sprintf("%s/v1/topk?q=%d&measure=%s&k=5", ts.URL, slot.Query, measure)
			if code := getJSON(t, url, &single); code != http.StatusOK {
				t.Fatalf("%s q=%d: single query status %d", measure, slot.Query, code)
			}
			if !reflect.DeepEqual(slot.Results, single.Results) {
				t.Fatalf("%s q=%d: batch ranking %v != single ranking %v", measure, slot.Query, slot.Results, single.Results)
			}
		}
	}
	cases := []struct {
		name     string
		cfg      Config
		g        func(t *testing.T) graph.Graph // nil = testGraph
		prepare  func(t *testing.T, ts *httptest.Server, srv *Server)
		measures []string // one batch per measure
		body     string   // the batch fields after "measure"
		check    func(t *testing.T, ts *httptest.Server, measure string, body v1BatchBody)
	}{
		{
			// With one queue slot a batch may keep one member in flight; a
			// fan-out that submitted every member at once would be shed.
			name:     "queue depth 1 never sheds",
			cfg:      Config{Workers: 4, QueueDepth: 1, CacheEntries: -1},
			g:        func(t *testing.T) graph.Graph { return yieldGraph{testGraph(t)} },
			measures: allMeasures,
			body:     `"k":5,"queries":[` + queries(32, 61) + `]`,
			check:    matchesSingles,
		},
		{
			// The default pool runs a batch as wide as its workers allow;
			// concurrent members still answer exactly as sequential ones.
			name:     "default pool matches single queries",
			cfg:      Config{CacheEntries: -1},
			measures: allMeasures,
			body:     `"k":5,"queries":[` + queries(40, 3) + `]`,
			check:    matchesSingles,
		},
		{
			name:     "1ns client deadline",
			measures: []string{"rwr"},
			body:     `"k":5,"deadline":"1ns","queries":[` + queries(16, 97) + `]`,
			check: func(t *testing.T, _ *httptest.Server, _ string, body v1BatchBody) {
				for i, slot := range body.Results {
					if slot.Error == "" && len(slot.Results) == 0 {
						t.Fatalf("slot %d is empty", i)
					}
					if slot.Error != "" && (!strings.Contains(slot.Error, core.ErrDeadline.Error()) || slot.Status != http.StatusGatewayTimeout) {
						t.Fatalf("slot %d: %q (status %d), want a deadline error with 504", i, slot.Error, slot.Status)
					}
				}
			},
		},
		{
			name: "1ms pool timeout",
			cfg:  Config{Workers: 2, QueueDepth: 4, CacheEntries: -1, Timeout: time.Millisecond},
			g: func(t *testing.T) graph.Graph {
				g, err := gen.Community(20000, 80000, gen.DefaultCommunityParams(), 5)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			measures: []string{"rwr"},
			body:     `"k":50,"tau":1e-12,"queries":[0,1000,2000,3000,4000,5000]`,
			check: func(t *testing.T, _ *httptest.Server, _ string, body v1BatchBody) {
				if body.Errors == 0 {
					t.Fatal("no slot hit the 1ms pool timeout")
				}
				for i, slot := range body.Results {
					if slot.Error != "" && (!strings.Contains(slot.Error, core.ErrDeadline.Error()) || slot.Status != http.StatusGatewayTimeout) {
						t.Fatalf("slot %d: %q (status %d), want a deadline error with 504", i, slot.Error, slot.Status)
					}
				}
			},
		},
		{
			name:     "closed server",
			prepare:  func(_ *testing.T, _ *httptest.Server, srv *Server) { srv.Close() },
			measures: []string{"php"},
			body:     `"queries":[1,2,3,4]`,
			check: func(t *testing.T, _ *httptest.Server, _ string, body v1BatchBody) {
				for i, slot := range body.Results {
					if slot.Error != qserve.ErrClosed.Error() || slot.Status != http.StatusServiceUnavailable {
						t.Fatalf("slot %d: %q (status %d), want %q with 503", i, slot.Error, slot.Status, qserve.ErrClosed)
					}
				}
			},
		},
		{
			// Other clients hold the only worker and the only queue slot:
			// each member is shed like a single query, inside a 200.
			name: "queue full of other clients",
			cfg:  Config{Workers: 1, QueueDepth: 1, CacheEntries: -1},
			g: func(t *testing.T) graph.Graph {
				return &gateGraph{Graph: testGraph(t), gate: make(chan struct{}), entered: make(chan struct{}, 16)}
			},
			prepare: func(t *testing.T, ts *httptest.Server, srv *Server) {
				gg := srv.g.(*gateGraph)
				singles := make(chan int, 2)
				single := func(q int) {
					resp, err := http.Get(fmt.Sprintf("%s/v1/topk?q=%d&k=1", ts.URL, q))
					if err != nil {
						singles <- 0
						return
					}
					resp.Body.Close()
					singles <- resp.StatusCode
				}
				go single(0)
				<-gg.entered // the worker is held inside the first query
				go single(1)
				for deadline := time.Now().Add(5 * time.Second); srv.Pool().QueueDepth() < 1; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("second query never reached the queue")
					}
				}
				t.Cleanup(func() {
					close(gg.gate)
					for i := 0; i < 2; i++ {
						if code := <-singles; code != http.StatusOK {
							t.Errorf("held query %d: status %d", i, code)
						}
					}
				})
			},
			measures: []string{"php"},
			body:     `"queries":[5,6,7]`,
			check: func(t *testing.T, _ *httptest.Server, _ string, body v1BatchBody) {
				for i, slot := range body.Results {
					if slot.Error != qserve.ErrOverloaded.Error() || slot.Status != http.StatusTooManyRequests {
						t.Fatalf("slot %d: %q (status %d), want %q with 429", i, slot.Error, slot.Status, qserve.ErrOverloaded)
					}
				}
			},
		},
	}
	client := &http.Client{Timeout: 30 * time.Second} // a hung batch fails, not stalls
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g graph.Graph
			if tc.g != nil {
				g = tc.g(t)
			} else {
				g = testGraph(t)
			}
			ts, srv := serveGraph(t, g, tc.cfg)
			if tc.prepare != nil {
				tc.prepare(t, ts, srv)
			}
			for _, m := range tc.measures {
				resp, err := client.Post(ts.URL+"/v1/topk/batch", "application/json",
					strings.NewReader(`{"measure":"`+m+`",`+tc.body+`}`))
				if err != nil {
					t.Fatal(err)
				}
				var body v1BatchBody
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d, decode error %v", m, resp.StatusCode, err)
				}
				var sent v1BatchRequestBody
				if err := json.Unmarshal([]byte("{"+tc.body+"}"), &sent); err != nil {
					t.Fatal(err)
				}
				if body.Count != len(sent.Queries) || len(body.Results) != len(sent.Queries) {
					t.Fatalf("%s: count %d with %d slots, want %d", m, body.Count, len(body.Results), len(sent.Queries))
				}
				tc.check(t, ts, m, body)
			}
		})
	}
}

// TestDoBatchCanceled covers the path no HTTP client can read back, since a
// canceled request gets no response: doBatch returns promptly with every
// slot filled, finished members keep their answers, and every other slot
// carries *core.Interrupted wrapping ErrCanceled.
func TestDoBatchCanceled(t *testing.T) {
	cases := []struct {
		name string
		// midFlight holds the workers inside the first members and cancels
		// while they run; otherwise the context is dead before the call.
		midFlight bool
	}{
		{name: "before start"},
		{name: "mid-flight", midFlight: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gg := &gateGraph{Graph: testGraph(t), gate: make(chan struct{}), entered: make(chan struct{}, 1)}
			if !tc.midFlight {
				close(gg.gate)
			}
			_, srv := serveGraph(t, gg, Config{Workers: 2, QueueDepth: 2, CacheEntries: -1})
			opt, _, err := srv.options(queryParams{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			queries := make([]graph.NodeID, 10)
			for i := range queries {
				queries[i] = graph.NodeID(i * 37)
			}

			ctx, cancel := context.WithCancel(context.Background())
			if !tc.midFlight {
				cancel()
			}
			type result struct {
				resps []*qserve.Response
				errs  []error
			}
			done := make(chan result, 1)
			go func() {
				resps, errs := srv.doBatch(ctx, "batch", queries, opt)
				done <- result{resps, errs}
			}()
			if tc.midFlight {
				select {
				case <-gg.entered:
				case <-time.After(10 * time.Second):
					t.Fatal("no member ever reached the gate")
				}
				cancel()
				close(gg.gate)
			}
			var out result
			select {
			case out = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("doBatch hung after cancellation")
			}
			cancel()

			interrupted := 0
			for i := range queries {
				if out.errs[i] == nil {
					if tc.midFlight && out.resps[i] != nil {
						continue // a member may finish before it sees the cancel
					}
					t.Fatalf("slot %d: resp=%v err=nil, want an interrupted slot", i, out.resps[i])
				}
				var in *core.Interrupted
				if !errors.As(out.errs[i], &in) || !errors.Is(out.errs[i], core.ErrCanceled) {
					t.Fatalf("slot %d: err = %v, want *Interrupted wrapping ErrCanceled", i, out.errs[i])
				}
				interrupted++
			}
			if interrupted == 0 {
				t.Fatal("cancellation produced no interrupted slots")
			}
		})
	}
}
