package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/livegraph"
)

// TestV1TopKEnvelope checks the versioned envelope across every measure:
// api_version, the certification block (certified exact, gap within TieEps,
// bounds parallel to the results), and the work counters.
func TestV1TopKEnvelope(t *testing.T) {
	ts := newTestServer(t)
	for _, m := range []string{"php", "ei", "dht", "tht", "rwr"} {
		var body v1TopKBody
		url := fmt.Sprintf("%s/v1/topk?q=100&k=5&measure=%s", ts.URL, m)
		if code := getJSON(t, url, &body); code != 200 {
			t.Fatalf("%s: code %d", m, code)
		}
		if body.APIVersion != "v1" {
			t.Fatalf("%s: api_version %q", m, body.APIVersion)
		}
		if len(body.Results) != 5 || !body.Exact {
			t.Fatalf("%s: %+v", m, body)
		}
		c := body.Certification
		if c.Mode != core.ModeExact || !c.Certified {
			t.Fatalf("%s: certification %+v", m, c)
		}
		if !c.GapValid || c.Gap < 0 || c.Gap > 1e-9 {
			t.Fatalf("%s: exact gap %g (valid=%v)", m, c.Gap, c.GapValid)
		}
		if len(c.Bounds) != len(body.Results) {
			t.Fatalf("%s: %d bounds for %d results", m, len(c.Bounds), len(body.Results))
		}
		for i, b := range c.Bounds {
			if b.Node != body.Results[i].Node {
				t.Fatalf("%s: bounds[%d] node %d != results[%d] node %d", m, i, b.Node, i, body.Results[i].Node)
			}
			if b.Lower > b.Upper+1e-9 {
				t.Fatalf("%s: inverted interval [%g, %g]", m, b.Lower, b.Upper)
			}
		}
	}
}

// TestV1TopKKernel checks that the retired kernel= parameter is ignored
// like any other unknown parameter: ?kernel=parallel answers with the same
// body as no parameter, and the two requests share one result-cache entry.
func TestV1TopKKernel(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{CacheEntries: 64})
	var plain, withKernel v1TopKBody
	url := ts.URL + "/v1/topk?q=100&k=5&measure=php"
	if code := getJSON(t, url, &plain); code != 200 || plain.Cached {
		t.Fatalf("plain: code %d cached %v", code, plain.Cached)
	}
	if code := getJSON(t, url+"&kernel=parallel", &withKernel); code != 200 || !withKernel.Cached {
		t.Fatalf("kernel=parallel: code %d cached %v, want a hit on the plain request's entry", code, withKernel.Cached)
	}
	// Only the per-request fields may differ.
	withKernel.Cached, withKernel.ElapsedUS, withKernel.TraceID = plain.Cached, plain.ElapsedUS, plain.TraceID
	if got, want := fmt.Sprintf("%+v", withKernel), fmt.Sprintf("%+v", plain); got != want {
		t.Fatalf("kernel=parallel body differs from the plain body:\n got %s\nwant %s", got, want)
	}
}

// TestV1TopKEpsilon checks the ε-certified mode over HTTP: 200 with a
// certified block whose achieved gap is within the requested budget.
func TestV1TopKEpsilon(t *testing.T) {
	ts := newTestServer(t)
	var body v1TopKBody
	url := ts.URL + "/v1/topk?q=100&k=10&measure=rwr&mode=epsilon&epsilon=1e-3"
	if code := getJSON(t, url, &body); code != 200 {
		t.Fatalf("code %d", code)
	}
	c := body.Certification
	if c.Mode != core.ModeEpsilon || c.Epsilon != 1e-3 {
		t.Fatalf("certification mode/ε: %+v", c)
	}
	if !c.Certified || c.Gap > 1e-3 {
		t.Fatalf("ε answer not certified within budget: %+v", c)
	}
}

// TestV1TopKAnytimeDeadline is the acceptance path: an anytime query whose
// deadline expires mid-search answers HTTP 200 with the partial top-k and
// Certified=false — not 504.
func TestV1TopKAnytimeDeadline(t *testing.T) {
	ts := newTestServer(t)
	var body v1TopKBody
	url := ts.URL + "/v1/topk?q=100&k=10&measure=rwr&mode=anytime&deadline=1ns"
	if code := getJSON(t, url, &body); code != 200 {
		t.Fatalf("code %d, want 200", code)
	}
	c := body.Certification
	if c.Mode != core.ModeAnytime {
		t.Fatalf("mode %v, want anytime", c.Mode)
	}
	if c.Certified {
		t.Fatalf("deadline-starved anytime answer claims certified: %+v", c)
	}
	if body.Exact {
		t.Fatalf("deadline-starved anytime answer claims exact")
	}

	// Both /metrics formats count the partial: deadlines that bind show.
	var m metricsDoc
	if code := getJSON(t, ts.URL+"/metrics?format=json", &m); code != 200 || m.AnytimePartial != 1 {
		t.Fatalf("queries_anytime_partial = %d (code %d), want 1", m.AnytimePartial, code)
	}
	if text := promText(t, ts.URL); !strings.Contains(text, "\nflos_query_anytime_partial_total 1\n") {
		t.Fatalf("exposition lacks flos_query_anytime_partial_total 1:\n%s", text)
	}

	// The same starved request in exact mode is a 504.
	resp, err := http.Get(ts.URL + "/v1/topk?q=100&k=10&measure=rwr&deadline=1ns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exact-mode starved query: code %d, want 504", resp.StatusCode)
	}
}

// TestV1DeadlineClamp checks that a client deadline above Config.MaxDeadline
// is clamped, not rejected: with a 1ns server cap, even a generous client
// deadline yields an uncertified anytime partial.
func TestV1DeadlineClamp(t *testing.T) {
	ts, _ := newTestServerCfg(t, Config{MaxDeadline: time.Nanosecond})
	var body v1TopKBody
	url := ts.URL + "/v1/topk?q=100&k=10&measure=rwr&mode=anytime&deadline=10h"
	if code := getJSON(t, url, &body); code != 200 {
		t.Fatalf("code %d", code)
	}
	if body.Certification.Certified {
		t.Fatalf("10h deadline was not clamped to the 1ns server cap")
	}
}

// TestV1Unified checks the unified envelope's per-family certifications.
func TestV1Unified(t *testing.T) {
	ts := newTestServer(t)
	var body v1UnifiedBody
	if code := getJSON(t, ts.URL+"/v1/unified?q=42&k=4", &body); code != 200 {
		t.Fatalf("code %d", code)
	}
	if body.APIVersion != "v1" || len(body.PHPFamily) != 4 || len(body.RWR) != 4 {
		t.Fatalf("body = %+v", body)
	}
	if !body.PHPCert.Certified || !body.RWRCert.Certified {
		t.Fatalf("family certifications: php=%+v rwr=%+v", body.PHPCert, body.RWRCert)
	}
	if len(body.PHPCert.Bounds) != 4 || len(body.RWRCert.Bounds) != 4 {
		t.Fatalf("bounds: php=%d rwr=%d", len(body.PHPCert.Bounds), len(body.RWRCert.Bounds))
	}
}

// TestV1Batch checks the batch envelope: shared serving mode, per-slot
// certifications, and per-slot errors that do not fail the batch.
func TestV1Batch(t *testing.T) {
	ts := newTestServer(t)
	payload := `{"queries":[1,2,999999],"k":3,"measure":"rwr","mode":"epsilon","epsilon":0.001}`
	resp, err := http.Post(ts.URL+"/v1/topk/batch", "application/json", bytes.NewReader([]byte(payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("code %d", resp.StatusCode)
	}
	var body v1BatchBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.APIVersion != "v1" || body.Mode != "epsilon" || body.Count != 3 || body.Errors != 1 {
		t.Fatalf("body = %+v", body)
	}
	for i := 0; i < 2; i++ {
		slot := body.Results[i]
		if slot.Error != "" || slot.Certification == nil {
			t.Fatalf("slot %d: %+v", i, slot)
		}
		if !slot.Certification.Certified || slot.Certification.Gap > 0.001 {
			t.Fatalf("slot %d certification: %+v", i, slot.Certification)
		}
	}
	if body.Results[2].Error == "" || body.Results[2].Certification != nil {
		t.Fatalf("out-of-range slot: %+v", body.Results[2])
	}
}

// TestV1BadRequests checks the serving-mode validation surface.
func TestV1BadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []string{
		"/v1/topk?q=1&mode=bogus",                 // unknown mode
		"/v1/topk?q=1&mode=epsilon&epsilon=2",     // over the default 1.0 cap
		"/v1/topk?q=1&mode=epsilon&epsilon=-0.5",  // negative budget
		"/v1/topk?q=1&mode=epsilon&epsilon=x",     // unparsable budget
		"/v1/topk?q=1&epsilon=1e-3",               // epsilon without ModeEpsilon
		"/v1/topk?q=1&mode=anytime&deadline=-1s",  // non-positive deadline
		"/v1/topk?q=1&mode=anytime&deadline=soon", // unparsable deadline
		"/v1/unified?q=1&mode=epsilon&epsilon=2",  // same checks on /v1/unified
		// Non-finite values parse as floats but must not reach the engine
		// (an echoed NaN also breaks the JSON envelope after the 200 header).
		"/v1/topk?q=1&mode=epsilon&epsilon=NaN",
		"/v1/topk?q=1&mode=epsilon&epsilon=Inf",
		"/v1/unified?q=1&mode=epsilon&epsilon=NaN",
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

	// A negative MaxEpsilon disables ε serving entirely without breaking
	// exact requests.
	ts2, _ := newTestServerCfg(t, Config{MaxEpsilon: -1})
	var e errorBody
	if code := getJSON(t, ts2.URL+"/v1/topk?q=1&mode=epsilon&epsilon=1e-6", &e); code != http.StatusBadRequest {
		t.Errorf("ε on ε-disabled server: code %d, want 400", code)
	}
	if code := getJSON(t, ts2.URL+"/v1/topk?q=1&k=3", nil); code != 200 {
		t.Errorf("exact on ε-disabled server: code %d, want 200", code)
	}

	// Mutation bodies: an op count over MaxBatch is a 400, and a 1 MiB body
	// is refused by size with a 413, not buffered and decoded first.
	_, live := serveGraph(t, livegraph.New(testGraph(t)), Config{MaxBatch: 4})
	const bodyLimit = 4096 + 64*4
	const op = `{"op":"set","u":1,"v":2,"w":2}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"over max batch", `{"ops":[` + strings.Repeat(op+",", 4) + op + `]}`, 400},
		{"over body limit", `{"ops":[` + strings.Repeat(op+",", 1<<15) + op + `]}`, 413},
	} {
		code, eb, read := postCounting(t, live.Handler(), "/v1/graph/edges", tc.body)
		if code != tc.want || eb.Error == "" {
			t.Errorf("edges %s: code %d error %q, want %d with an error body", tc.name, code, eb.Error, tc.want)
		}
		if read > bodyLimit+1 {
			t.Errorf("edges %s: handler read %d body bytes, limit is %d", tc.name, read, bodyLimit)
		}
	}
}

// TestRouteTable pins the one-surface contract: the four retired unversioned
// routes answer the mux's 404, and the route table is the only list of
// paths — each entry has its latency histogram, and the package comment's
// endpoint list names exactly the table's paths.
func TestRouteTable(t *testing.T) {
	ts, srv := newTestServerCfg(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/topk?q=1"},
		{http.MethodGet, "/unified?q=1"},
		{http.MethodPost, "/topk/batch"},
		{http.MethodPost, "/graph/edges"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(`{"queries":[1],"ops":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: code %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}

	src, err := os.ReadFile("routes.go")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t(?:GET|POST) (/[^ ?]*)`).FindAllSubmatch(src, -1) {
		documented[string(m[1])] = true
	}
	if len(documented) != len(srv.routes) {
		t.Errorf("package comment lists %d endpoints, route table has %d", len(documented), len(srv.routes))
	}
	for _, rt := range srv.routes {
		if srv.httpLat[rt.path] == nil {
			t.Errorf("route %s has no latency histogram", rt.path)
		}
		if !documented[rt.path] {
			t.Errorf("route %s missing from the package comment's endpoint list", rt.path)
		}
	}
	if len(srv.httpLat) != len(srv.routes) {
		t.Errorf("%d latency histograms for %d routes", len(srv.httpLat), len(srv.routes))
	}
}

// TestModeJSONRoundTrip pins the wire spelling of the mode enum.
func TestModeJSONRoundTrip(t *testing.T) {
	for _, m := range []core.Mode{core.ModeExact, core.ModeEpsilon, core.ModeAnytime} {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + m.String() + `"`; string(b) != want {
			t.Fatalf("marshal %v = %s, want %s", m, b, want)
		}
		var back core.Mode
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Fatalf("round trip %v -> %v", m, back)
		}
	}
	var m core.Mode
	if err := json.Unmarshal([]byte(`"warp"`), &m); err == nil {
		t.Fatal("unknown mode unmarshaled without error")
	}
}
