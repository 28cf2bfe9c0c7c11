package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"flos/internal/obs"
	"flos/internal/obs/trace"
)

// traceConfig returns a Config with span tracing on at the given head rate,
// plus the flight recorder the join tests need.
func traceConfig(headRate float64, slow time.Duration) Config {
	return Config{
		Recorder: obs.NewFlightRecorder(obs.RecorderConfig{Size: 64, SlowLatency: slow}),
		Tracer:   trace.New(trace.Config{HeadRate: headRate, SlowLatency: slow}),
	}
}

func doGet(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestTraceparentPropagation: a client traceparent is continued — the
// response echoes the same trace ID with the server's boundary span — and
// the retained trace nests the serving-layer spans under that client parent.
func TestTraceparentPropagation(t *testing.T) {
	ts, srv := newTestServerCfg(t, traceConfig(trace.HeadAll, -1))
	clientTID := trace.NewID()
	clientSID := trace.NewSpanID()
	inbound := trace.TraceParent{Trace: clientTID, Span: clientSID, Sampled: true}.String()

	resp := doGet(t, ts.URL+"/v1/topk?q=100&k=5&measure=rwr", map[string]string{trace.Header: inbound})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk = %d", resp.StatusCode)
	}
	echoed := resp.Header.Get(trace.Header)
	out, err := trace.ParseTraceparent(echoed)
	if err != nil {
		t.Fatalf("response traceparent %q does not parse: %v", echoed, err)
	}
	if out.Trace != clientTID {
		t.Fatalf("response trace ID %s, want the client's %s continued", out.Trace, clientTID)
	}
	if out.Span == clientSID {
		t.Fatal("response parent span is the client's own — server minted no boundary span")
	}
	if !out.Sampled {
		t.Fatal("client's sampled flag not honored")
	}

	var detail struct {
		TraceID string            `json:"trace_id"`
		Root    string            `json:"root"`
		Sampled string            `json:"sampled"`
		Tree    []*trace.SpanNode `json:"tree"`
	}
	if code := getJSON(t, ts.URL+"/debug/flos/traces?id="+clientTID.String(), &detail); code != http.StatusOK {
		t.Fatalf("traces?id = %d", code)
	}
	if detail.Root != "GET /v1/topk" || detail.Sampled != "head" {
		t.Fatalf("trace = root %q sampled %q", detail.Root, detail.Sampled)
	}
	if len(detail.Tree) != 1 || detail.Tree[0].Span.Name != "GET /v1/topk" {
		t.Fatalf("tree roots = %+v, want the boundary span", detail.Tree)
	}
	if detail.Tree[0].Span.Parent != clientSID.String() {
		t.Fatalf("boundary span parent %q, want the client span %s", detail.Tree[0].Span.Parent, clientSID)
	}
	names := map[string]bool{}
	var walk func(ns []*trace.SpanNode)
	walk = func(ns []*trace.SpanNode) {
		for _, n := range ns {
			names[n.Span.Name] = true
			walk(n.Children)
		}
	}
	walk(detail.Tree)
	for _, want := range []string{"qserve.queue.wait", "qserve.cache.lookup", "qserve.execute"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	// A no-header request mints a fresh trace and still echoes traceparent.
	resp2 := doGet(t, ts.URL+"/v1/unified?q=42&k=4", nil)
	out2, err := trace.ParseTraceparent(resp2.Header.Get(trace.Header))
	if err != nil || out2.Trace == clientTID {
		t.Fatalf("fresh request traceparent %q err %v", resp2.Header.Get(trace.Header), err)
	}
	if srv.tracer.Get(out2.Trace.String()) == nil {
		t.Fatal("fresh trace not retained at HeadAll")
	}
}

// TestTraceparentBatchSlots: a traced batch records one qserve.slot span per
// member query.
func TestTraceparentBatchSlots(t *testing.T) {
	ts, srv := newTestServerCfg(t, traceConfig(trace.HeadAll, -1))
	body := `{"queries":[5,9,14],"k":4,"measure":"php"}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/topk/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.Header))
	if err != nil {
		t.Fatal(err)
	}
	kept := srv.tracer.Get(tp.Trace.String())
	if kept == nil {
		t.Fatal("batch trace not retained")
	}
	slots := 0
	for _, sp := range kept.Spans {
		if sp.Name == "qserve.slot" {
			slots++
		}
	}
	if slots != 3 {
		t.Fatalf("%d qserve.slot spans, want 3", slots)
	}
}

// TestTraceparentMalformed: a malformed traceparent is the client's error —
// every endpoint answers the same structured 400, tracer on or off.
func TestTraceparentMalformed(t *testing.T) {
	bad := []string{
		"zz-00000000000000000000000000000001-0000000000000001-01", // bad version hex
		"ff-00000000000000000000000000000001-0000000000000001-01", // version ff
		"00-00000000000000000000000000000000-0000000000000001-01", // zero trace
		"00-00000000000000000000000000000001-0000000000000000-01", // zero span
		"00-ABCDEF00000000000000000000000001-0000000000000001-01", // uppercase
		"00-0000000000000001-0000000000000001-01",                 // short trace
		"00-00000000000000000000000000000001-0000000000000001",    // 3 fields
		"garbage",
	}
	for _, tracerOn := range []bool{true, false} {
		cfg := Config{}
		if tracerOn {
			cfg = traceConfig(trace.HeadAll, -1)
		}
		ts, _ := newTestServerCfg(t, cfg)
		for _, ep := range []string{"/v1/topk?q=100&k=5", "/v1/unified?q=42&k=4", "/healthz"} {
			for _, v := range bad {
				resp := doGet(t, ts.URL+ep, map[string]string{trace.Header: v})
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("tracer=%v %s traceparent %q: code %d, want 400", tracerOn, ep, v, resp.StatusCode)
				}
				if resp.Header.Get("X-Request-ID") == "" {
					t.Errorf("400 response lost its X-Request-ID")
				}
			}
		}
	}
}

// TestTraceparentEchoTracerOff: with tracing disabled a valid client header
// still round-trips verbatim, and /debug/flos/traces answers 404.
func TestTraceparentEchoTracerOff(t *testing.T) {
	ts := newTestServer(t)
	inbound := trace.TraceParent{Trace: trace.NewID(), Span: trace.NewSpanID(), Sampled: true}.String()
	resp := doGet(t, ts.URL+"/v1/topk?q=100&k=5", map[string]string{trace.Header: inbound})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(trace.Header); got != inbound {
		t.Fatalf("echo %q, want the inbound value %q", got, inbound)
	}
	// No header in → no header out when the tracer is off.
	resp2 := doGet(t, ts.URL+"/v1/topk?q=100&k=5", nil)
	if got := resp2.Header.Get(trace.Header); got != "" {
		t.Fatalf("tracer off minted a traceparent %q", got)
	}
	if code := getJSON(t, ts.URL+"/debug/flos/traces", nil); code != http.StatusNotFound {
		t.Fatalf("traces endpoint = %d with tracing off, want 404", code)
	}
}

// TestTracesEndpointList covers the list view, its counters, and the error
// paths (?id= miss, bad n).
func TestTracesEndpointList(t *testing.T) {
	ts, _ := newTestServerCfg(t, traceConfig(trace.HeadAll, -1))
	for i := 0; i < 3; i++ {
		if resp := doGet(t, fmt.Sprintf("%s/v1/topk?q=%d&k=5", ts.URL, 10+i), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("topk = %d", resp.StatusCode)
		}
	}
	var list traceListBody
	if code := getJSON(t, ts.URL+"/debug/flos/traces?n=2", &list); code != http.StatusOK {
		t.Fatalf("traces = %d", code)
	}
	if list.Started < 3 || list.KeptHead < 3 {
		t.Fatalf("counters = %+v, want >= 3 started and head-kept", list)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(list.Traces))
	}
	for _, tr := range list.Traces {
		if tr.TraceID == "" || tr.Root == "" || tr.Spans < 2 || tr.Status != "ok" {
			t.Fatalf("summary = %+v", tr)
		}
	}
	if code := getJSON(t, ts.URL+"/debug/flos/traces?id="+strings.Repeat("0", 31)+"1", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flos/traces?n=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n = %d, want 400", code)
	}
}

// TestTraceTailPromotionJoins is the acceptance contract over HTTP: at a 0%
// head rate a slow query's trace is still retrievable as a full span tree,
// and its trace ID appears in the slow-query log, the flight recorder, a
// latency exemplar, the access log, and the tail-kept Prometheus counter.
func TestTraceTailPromotionJoins(t *testing.T) {
	var buf syncBuffer
	cfg := traceConfig(0, time.Nanosecond) // keep nothing by hash; everything is slow
	cfg.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	ts, _ := newTestServerCfg(t, cfg)
	const reqID = "trace-join-1"

	resp := doGet(t, ts.URL+"/v1/topk?q=100&k=5&measure=rwr", map[string]string{"X-Request-ID": reqID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk = %d", resp.StatusCode)
	}
	tp, err := trace.ParseTraceparent(resp.Header.Get(trace.Header))
	if err != nil {
		t.Fatal(err)
	}
	if tp.Sampled {
		t.Fatal("head-sampled at rate 0")
	}
	traceID := tp.Trace.String()

	var detail struct {
		Sampled string            `json:"sampled"`
		Status  string            `json:"status"`
		Tree    []*trace.SpanNode `json:"tree"`
	}
	if code := getJSON(t, ts.URL+"/debug/flos/traces?id="+traceID, &detail); code != http.StatusOK {
		t.Fatalf("slow trace not retrievable at head rate 0: %d", code)
	}
	if !strings.HasPrefix(detail.Sampled, "tail:") || detail.Status != "ok" {
		t.Fatalf("trace = sampled %q status %q, want a tail promotion", detail.Sampled, detail.Status)
	}
	if len(detail.Tree) != 1 || len(detail.Tree[0].Children) == 0 {
		t.Fatalf("span tree incomplete: %+v", detail.Tree)
	}

	var slow flightDumpBody
	if code := getJSON(t, ts.URL+"/debug/flos/slow", &slow); code != http.StatusOK {
		t.Fatalf("slow = %d", code)
	}
	if len(slow.Records) != 1 || slow.Records[0].TraceID != traceID {
		t.Fatalf("slow log trace_id = %+v, want %s", slow.Records, traceID)
	}
	var ring flightDumpBody
	if code := getJSON(t, ts.URL+"/debug/flos/flightrec?n=1", &ring); code != http.StatusOK {
		t.Fatalf("flightrec = %d", code)
	}
	if len(ring.Records) != 1 || ring.Records[0].TraceID != traceID {
		t.Fatal("flight record missing the trace ID")
	}

	var met metricsDoc
	if code := getJSON(t, ts.URL+"/metrics?format=json", &met); code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	found := false
	for _, ex := range met.Exemplars {
		if ex.ID == reqID && ex.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("no exemplar joins request %q to trace %s: %+v", reqID, traceID, met.Exemplars)
	}
	// Every request here — the debug GETs included — exceeds the 1ns slow
	// threshold, so all keeps are tail keeps and none are head keeps.
	if met.Traces == nil || met.Traces.KeptTail < 1 || met.Traces.KeptHead != 0 {
		t.Errorf("trace counters = %+v, want tail keeps only", met.Traces)
	}

	raw, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	for _, want := range []string{
		`flos_traces_kept_total{sampled="tail"}`,
		`flos_traces_kept_total{sampled="head"} 0`,
		"flos_traces_started_total",
		"flos_traces_dropped_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	if !strings.Contains(buf.String(), traceID) {
		t.Errorf("access log does not carry trace ID %s:\n%s", traceID, buf.String())
	}
}
