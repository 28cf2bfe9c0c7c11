package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"flos/internal/livegraph"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
)

// metricsDoc decodes the /metrics?format=json fields the tests read.
type metricsDoc struct {
	QueriesServed  int64                         `json:"queries_served"`
	AnytimePartial int64                         `json:"queries_anytime_partial"`
	Iterations     int64                         `json:"engine_iterations"`
	VisitedNodes   int64                         `json:"engine_visited_nodes"`
	Workers        int                           `json:"workers"`
	QueueCap       int                           `json:"queue_cap"`
	CacheHits      int64                         `json:"cache_hits"`
	CacheCapacity  int                           `json:"cache_capacity"`
	CacheHitRatio  float64                       `json:"cache_hit_ratio"`
	Measures       map[string]measureLatencyBody `json:"measures"`
	Exemplars      []obs.Exemplar                `json:"latency_exemplars"`
	Runtime        struct {
		Goroutines     int    `json:"goroutines"`
		HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	} `json:"runtime"`
	Traces *struct {
		KeptHead uint64 `json:"kept_head"`
		KeptTail uint64 `json:"kept_tail"`
	} `json:"traces"`
	Disk           map[string]int64 `json:"disk"`
	CacheAnalytics *cacheLensBody   `json:"cache_analytics"`
}

// structuredFamilies are the Prometheus families the structured blocks of
// metricsProm write (histograms, cache lenses, SLO windows); every other
// family is a metricTable row.
var structuredFamilies = []string{
	"flos_query_latency_seconds", "flos_http_request_duration_seconds",
	"flos_pagecache_mrc_hit_ratio", "flos_pagecache_lens_sample_rate", "flos_pagecache_wss_estimate",
	"flos_result_cache_mrc_hit_ratio", "flos_result_cache_lens_sample_rate", "flos_result_cache_wss_estimate",
	"flos_slo_availability_objective", "flos_slo_latency_objective", "flos_slo_latency_threshold_seconds",
	"flos_slo_availability", "flos_slo_availability_burn_rate", "flos_slo_latency_compliance", "flos_slo_latency_burn_rate",
}

// structuredKeys are the top-level JSON objects the structured blocks write.
var structuredKeys = map[string]bool{"measures": true, "latency_exemplars": true, "slo": true, "cache_analytics": true}

// promLabels renders labels the way obs.PromWriter does.
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var parts []string
	for k, v := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", k, v))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// TestMetricNames pins the name of every metricTable row in
// testdata/metric_names.txt (regenerate with FLOS_UPDATE_GOLDEN=1), and
// checks that on a live server and on a store server, each with every
// diagnostics plane on, both formats carry exactly the rows of the groups
// that server has, besides the structured blocks.
//
//	FLOS_UPDATE_GOLDEN=1 go test -run TestMetricNames ./internal/server/
func TestMetricNames(t *testing.T) {
	var b strings.Builder
	b.WriteString("# group\tjson key\tprometheus family\tlabels (- = none): one row of server.metricTable per line\n")
	jsonSeen, promSeen := map[string]bool{}, map[string]bool{}
	for _, r := range metricTable {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", dash(r.group), dash(r.key), dash(r.family), dash(promLabels(r.labels)))
		if j := r.group + "." + r.key; r.key != "" {
			if jsonSeen[j] {
				t.Errorf("JSON key %s declared twice", j)
			}
			jsonSeen[j] = true
		}
		if pr := r.family + promLabels(r.labels); r.family != "" {
			if promSeen[pr] {
				t.Errorf("series %s declared twice", pr)
			}
			promSeen[pr] = true
		}
	}
	golden := filepath.Join("testdata", "metric_names.txt")
	if os.Getenv("FLOS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(golden); err != nil {
		t.Fatalf("reading golden (regenerate with FLOS_UPDATE_GOLDEN=1): %v", err)
	} else if string(want) != b.String() {
		t.Fatalf("metric names drifted from %s; if intentional, regenerate with FLOS_UPDATE_GOLDEN=1:\n%s", golden, b.String())
	}

	structured := map[string]bool{}
	for _, f := range structuredFamilies {
		if promSeen[f] {
			t.Errorf("%s is both a table row and a structured block", f)
		}
		structured[f] = true
	}
	emitted := map[string]bool{}
	for _, srv := range []struct {
		name   string
		ts     *httptest.Server
		groups []string
	}{
		{"live", liveDiagServer(t), []string{"", "runtime", "live", "traces", "flightrec"}},
		{"store", storeDiagServer(t), []string{"", "runtime", "disk", "traces", "flightrec"}},
	} {
		has := map[string]bool{}
		for _, g := range srv.groups {
			has[g] = true
		}
		wantJSON, wantProm := map[string]bool{}, map[string]bool{}
		for _, r := range metricTable {
			if r.key != "" && has[r.group] {
				wantJSON[r.group+"."+r.key] = true
			}
			if r.family != "" && has[r.group] {
				wantProm[r.family+promLabels(r.labels)] = true
			}
		}

		gotJSON := map[string]bool{}
		for k, v := range jsonDoc(t, srv.ts.URL) {
			if structuredKeys[k] {
				continue
			}
			leaves, ok := v.(map[string]any)
			if !ok {
				leaves, k = map[string]any{k: v}, ""
			}
			for kk, v := range leaves {
				gotJSON[k+"."+kk] = true
				// The table renders float64s; counters and gauges must
				// still print as the integers bench/ decodes them into.
				if n, ok := v.(json.Number); !ok || (kk != "cache_hit_ratio" && strings.ContainsAny(string(n), ".eE")) {
					t.Errorf("%s: %s.%s = %v, want a JSON integer", srv.name, k, kk, v)
				}
			}
		}
		diffSets(t, srv.name+" JSON", gotJSON, wantJSON)

		gotProm := map[string]bool{}
		for family, series := range promSeries(t, srv.ts.URL) {
			if structured[family] {
				emitted[family] = true
				continue
			}
			for _, s := range series {
				gotProm[s] = true
			}
		}
		diffSets(t, srv.name+" Prometheus", gotProm, wantProm)
	}
	for _, f := range structuredFamilies {
		if !emitted[f] {
			t.Errorf("structured family %s emitted by neither server", f)
		}
	}
}

// jsonDoc decodes /metrics?format=json keeping numbers as written.
func jsonDoc(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func diffSets(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected %s", what, k)
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing %s", what, k)
		}
	}
}

// promSeries scrapes the Prometheus exposition and returns its series
// (family plus label set, histograms without their bucket label) by family.
func promSeries(t *testing.T, base string) map[string][]string {
	t.Helper()
	types := map[string]string{}
	out := map[string][]string{}
	for _, line := range strings.Split(promText(t, base), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				family = base
			}
		}
		if types[family] == "" {
			t.Errorf("series %s has no TYPE line", series)
		}
		out[family] = append(out[family], series)
	}
	return out
}

// promText scrapes the Prometheus exposition.
func promText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// fullDiagConfig turns on every diagnostics plane flosd ships.
func fullDiagConfig() Config {
	return Config{
		Recorder:  obs.NewFlightRecorder(obs.RecorderConfig{Size: 64, SlowLatency: time.Nanosecond}),
		SLO:       obs.NewSLOTracker(obs.SLOConfig{}),
		Tracer:    trace.New(trace.Config{HeadRate: 1}),
		CacheLens: cachelens.New(cachelens.Config{Capacity: 64, SampleRate: 1}),
	}
}

// liveDiagServer serves a live graph with every plane on, after a query, a
// cache hit and one mutation batch.
func liveDiagServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _ := serveGraph(t, livegraph.New(testGraph(t)), fullDiagConfig())
	for i := 0; i < 2; i++ {
		if code := getJSON(t, ts.URL+"/v1/topk?q=12&k=5", nil); code != http.StatusOK {
			t.Fatalf("topk = %d", code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/graph/edges", "application/json", strings.NewReader(`{"ops":[{"op":"set","u":1,"v":2,"w":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate = %d", resp.StatusCode)
	}
	return ts
}

// storeDiagServer serves a disk store with every plane on, after a few
// queries.
func storeDiagServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts, _, _ := newDiskLensServer(t, fullDiagConfig())
	for q := 0; q < 4; q++ {
		if code := getJSON(t, fmt.Sprintf("%s/v1/topk?q=%d&k=5", ts.URL, q*37), nil); code != http.StatusOK {
			t.Fatalf("topk = %d", code)
		}
	}
	return ts
}

// TestReadmeNamesDeclared checks the names README.md gives operators: every
// flos_… token is a served Prometheus family or a prefix of one, and every
// /v1/… or /debug/flos/… path is in the route table.
func TestReadmeNamesDeclared(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	families := append([]string(nil), structuredFamilies...)
	for _, r := range metricTable {
		if r.family != "" {
			families = append(families, r.family)
		}
	}
	for _, tok := range regexp.MustCompile(`flos_[a-z0-9_]*`).FindAllString(readme, -1) {
		found := false
		for _, f := range families {
			found = found || strings.HasPrefix(f, tok)
		}
		if !found {
			t.Errorf("README names %s, which no family declares", tok)
		}
	}

	_, srv := newTestServerCfg(t, Config{})
	routes := map[string]bool{}
	for _, rt := range srv.routes {
		routes[rt.path] = true
	}
	for _, path := range regexp.MustCompile(`/(?:v1|debug/flos)/[a-z][a-z/]*`).FindAllString(readme, -1) {
		if path = strings.TrimSuffix(path, "/"); !routes[path] {
			t.Errorf("README names %s, which is not in the route table", path)
		}
	}
}
