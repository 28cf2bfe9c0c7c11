package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"flos/internal/obs"
)

// diagConfig returns a Config with the full diagnostics plane on: a flight
// recorder promoting everything over threshold into the slow log, and an
// SLO tracker.
func diagConfig(slowLatency time.Duration) Config {
	return Config{
		Recorder: obs.NewFlightRecorder(obs.RecorderConfig{Size: 64, SlowLatency: slowLatency}),
		SLO:      obs.NewSLOTracker(obs.SLOConfig{}),
	}
}

// TestDebugEndpointsDisabled: without a recorder/SLO tracker, the debug
// endpoints answer 404 rather than panicking or serving empty data.
func TestDebugEndpointsDisabled(t *testing.T) {
	ts := newTestServer(t)
	for _, ep := range []string{"/debug/flos/slow", "/debug/flos/flightrec", "/debug/flos/slo"} {
		var body map[string]any
		if code := getJSON(t, ts.URL+ep, &body); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", ep, code)
		}
	}
}

// TestSlowLogJoinsExemplar is the diagnostics plane's end-to-end join
// contract: a slow query (client-supplied X-Request-ID) shows up in
// /debug/flos/slow with its trajectory, the same ID is its latency bucket's
// exemplar in /metrics?format=json, and /debug/flos/flightrec lists it as
// the newest record.
func TestSlowLogJoinsExemplar(t *testing.T) {
	ts, _ := newTestServerCfg(t, diagConfig(time.Nanosecond)) // everything is slow
	const reqID = "diag-join-1"

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/topk?q=100&k=5&measure=rwr", nil)
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("response id %q, want %q (client IDs must be honored)", got, reqID)
	}

	var slow struct {
		Recorded  uint64              `json:"recorded"`
		SlowTotal uint64              `json:"slow_total"`
		Records   []*obs.FlightRecord `json:"records"`
	}
	if code := getJSON(t, ts.URL+"/debug/flos/slow", &slow); code != http.StatusOK {
		t.Fatalf("slow = %d", code)
	}
	if len(slow.Records) != 1 || slow.SlowTotal != 1 {
		t.Fatalf("slow log = %+v, want exactly the injected query", slow)
	}
	rec := slow.Records[0]
	if rec.ID != reqID || rec.Outcome != "ok" || !rec.Slow {
		t.Fatalf("slow record = %+v, want id %q promoted ok", rec, reqID)
	}
	if len(rec.Trace) == 0 || rec.TraceTotal != rec.Iterations || !rec.Trace[len(rec.Trace)-1].Certified {
		t.Fatalf("slow record trajectory unusable for replay: %d points of %d", len(rec.Trace), rec.TraceTotal)
	}

	var met struct {
		Exemplars []obs.Exemplar `json:"latency_exemplars"`
		SLO       *obs.SLOSnapshot
	}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &met); code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	found := false
	for _, ex := range met.Exemplars {
		if ex.ID == reqID {
			found = true
			if ex.LatencyUS != rec.LatencyUS {
				t.Errorf("exemplar latency %d != record latency %d", ex.LatencyUS, rec.LatencyUS)
			}
		}
	}
	if !found {
		t.Errorf("request ID %q missing from latency exemplars: %+v", reqID, met.Exemplars)
	}

	var ring struct {
		Records []*obs.FlightRecord `json:"records"`
	}
	if code := getJSON(t, ts.URL+"/debug/flos/flightrec?n=4", &ring); code != http.StatusOK {
		t.Fatalf("flightrec = %d", code)
	}
	if len(ring.Records) != 1 || ring.Records[0].ID != reqID {
		t.Fatalf("flight ring = %+v, want the injected query newest-first", ring.Records)
	}
}

// TestSLOEndpointAndGauges: query traffic shows up in /debug/flos/slo and
// the flos_slo_* gauges of the Prometheus exposition.
func TestSLOEndpointAndGauges(t *testing.T) {
	ts, _ := newTestServerCfg(t, diagConfig(-1))
	for i := 0; i < 3; i++ {
		if code := getJSON(t, ts.URL+"/v1/topk?q=10&k=5", nil); code != http.StatusOK {
			t.Fatalf("topk = %d", code)
		}
	}

	var slo obs.SLOSnapshot
	if code := getJSON(t, ts.URL+"/debug/flos/slo", &slo); code != http.StatusOK {
		t.Fatalf("slo = %d", code)
	}
	if len(slo.Windows) != 2 {
		t.Fatalf("windows = %+v, want 5m and 1h", slo.Windows)
	}
	for _, w := range slo.Windows {
		// 1 executed + 2 cache hits, all good.
		if w.Total != 3 || w.Errors != 0 || w.Availability != 1 || w.AvailabilityBurnRate != 0 {
			t.Errorf("window %s = %+v, want 3 good events", w.Window, w)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`flos_slo_availability{window="5m"} 1`,
		`flos_slo_availability_burn_rate{window="1h"} 0`,
		`flos_slo_latency_compliance{window="5m"} 1`,
		"flos_slo_availability_objective 0.999",
		"flos_flightrec_recorded_total 3",
		`flos_query_outcomes_total{outcome="ok"} 1`,
		`flos_query_outcomes_total{outcome="hit"} 2`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFlightDumpRoundTrips: the slow-log JSON body decodes back into
// FlightRecords with the trajectory intact — the contract `flos -replay`
// depends on.
func TestFlightDumpRoundTrips(t *testing.T) {
	ts, _ := newTestServerCfg(t, diagConfig(time.Nanosecond))
	if code := getJSON(t, ts.URL+"/v1/topk?q=42&k=5&measure=php", nil); code != http.StatusOK {
		t.Fatalf("topk = %d", code)
	}
	resp, err := http.Get(ts.URL + "/debug/flos/slow")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	var dump flightDumpBody
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("slow dump does not round-trip: %v", err)
	}
	rec := dump.Records[0]
	if rec.Query != 42 || rec.K != 5 || rec.Measure != "php" {
		t.Fatalf("round-tripped record = %+v", rec)
	}
	last := rec.Trace[len(rec.Trace)-1]
	if last.Visited != rec.Visited || !last.Certified {
		t.Fatalf("trajectory tail %+v does not match record %+v", last, rec)
	}
}
