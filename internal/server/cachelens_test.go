package server

import (
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flos/internal/diskgraph"
	"flos/internal/gen"
	"flos/internal/obs/cachelens"
)

// newDiskLensServer builds a server with cfg over a real disk store whose
// 8 KiB budget pins a few hub rows and leaves the rest on file, with
// analytics lenses on both the store's row lookups and the result cache —
// the full cache-analytics plane.
func newDiskLensServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *diskgraph.Store) {
	t.Helper()
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.flos")
	if err := diskgraph.Create(path, g, 512); err != nil {
		t.Fatal(err)
	}
	store, err := diskgraph.Open(path, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.AttachLens(cachelens.Config{SampleRate: 1, Seed: 3})

	cfg.CacheEntries = 8
	cfg.CacheLens = cachelens.New(cachelens.Config{Capacity: 8, SampleRate: 1, Seed: 5})
	ts, srv := serveGraph(t, store, cfg)
	return ts, srv, store
}

// TestCacheLensEndpoint drives disk-backed queries and checks the
// /debug/flos/cache payload shape: both planes present, the page_cache
// (store row) snapshot carrying a full miss-ratio curve, the working-set
// windows, and the pinned row count as its capacity.
func TestCacheLensEndpoint(t *testing.T) {
	ts, _, store := newDiskLensServer(t, Config{})
	for q := 0; q < 24; q++ {
		if code := getJSON(t, ts.URL+"/v1/topk?q="+strconv.Itoa(q*37)+"&k=5&measure=rwr", nil); code != 200 {
			t.Fatalf("query %d: code %d", q, code)
		}
	}

	var body cacheLensBody
	if code := getJSON(t, ts.URL+"/debug/flos/cache", &body); code != 200 {
		t.Fatalf("debug/flos/cache code %d", code)
	}
	pc, rc := body.PageCache, body.ResultCache
	if pc == nil || rc == nil {
		t.Fatalf("missing planes: page=%v result=%v", pc != nil, rc != nil)
	}
	if pc.SampledAccesses == 0 {
		t.Fatalf("page lens saw no traffic: %+v", pc)
	}
	if len(pc.Curve) != len(cachelens.DefaultScales) {
		t.Fatalf("curve has %d points, want %d", len(pc.Curve), len(cachelens.DefaultScales))
	}
	for i := 1; i < len(pc.Curve); i++ {
		if pc.Curve[i].EstHitRatio < pc.Curve[i-1].EstHitRatio {
			t.Fatalf("MRC not monotone: %+v", pc.Curve)
		}
	}
	// Reading every row fills every pinned row, which counts them.
	r := store.NewReader()
	for v := 0; v < store.NumNodes(); v++ {
		r.Neighbors(int32(v))
	}
	if pinned := store.CacheStats().PinnedRows; pc.Capacity != pinned || pinned == 0 {
		t.Fatalf("page lens capacity %d, want the %d pinned rows", pc.Capacity, pinned)
	}
	if len(pc.WorkingSet) != 2 || len(rc.WorkingSet) != 2 {
		t.Fatalf("working-set windows: page %d, result %d, want 2 each", len(pc.WorkingSet), len(rc.WorkingSet))
	}
	if rc.SampledAccesses == 0 {
		t.Fatal("result lens saw no lookups")
	}

	// The endpoint takes no parameters: ?n= once sized an allocation with no
	// upper bound, so one request could end the process. It is ignored now
	// like any unknown parameter.
	var huge cacheLensBody
	if code := getJSON(t, ts.URL+"/debug/flos/cache?n=1000000000000", &huge); code != 200 {
		t.Fatalf("n=1e12: code %d, want 200", code)
	}
	if huge.PageCache == nil || len(huge.PageCache.Curve) != len(pc.Curve) {
		t.Fatalf("n=1e12 changed the body: %+v", huge.PageCache)
	}
}

// TestCacheLensDisabled404 pins the debug-endpoint discipline: with no lens
// attached anywhere the endpoint answers a structured 404, not an empty 200.
func TestCacheLensDisabled404(t *testing.T) {
	ts := newTestServer(t)
	var e errorBody
	if code := getJSON(t, ts.URL+"/debug/flos/cache", &e); code != 404 || e.Error == "" {
		t.Fatalf("code %d, err %q; want structured 404", code, e.Error)
	}
}

// TestCacheLensMetrics is the disk rows' parity test: after traffic on a
// store-backed server, every disk row's JSON key, its Prometheus family and
// Store.CacheStats() read the same number, no series carries a shard label,
// and the analytics gauges render under both cache prefixes beside them.
func TestCacheLensMetrics(t *testing.T) {
	ts, _, store := newDiskLensServer(t, Config{})
	for q := 0; q < 24; q++ {
		if code := getJSON(t, ts.URL+"/v1/topk?q="+strconv.Itoa(q*37)+"&k=5&measure=rwr", nil); code != 200 {
			t.Fatalf("query %d: code %d", q, code)
		}
	}

	text := promText(t, ts.URL)
	var body metricsDoc
	if code := getJSON(t, ts.URL+"/metrics?format=json", &body); code != 200 {
		t.Fatal("metrics json failed")
	}
	st := store.CacheStats()
	want := map[string]int64{
		"page_hits":      st.Hits,
		"page_faults":    st.Misses,
		"resident_bytes": st.ResidentBytes,
		"pinned_rows":    int64(st.PinnedRows),
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("traffic exercised too little of the cache: %+v", st)
	}
	rows := 0
	for _, r := range metricTable {
		if r.group != "disk" {
			continue
		}
		rows++
		w, ok := want[r.key]
		if !ok {
			t.Fatalf("disk row %s has no CacheStats field in this test", r.key)
		}
		if got, ok := body.Disk[r.key]; !ok || got != w {
			t.Errorf("JSON disk.%s = %d (present %v), CacheStats says %d", r.key, got, ok, w)
		}
		if line := r.family + " " + strconv.FormatInt(w, 10) + "\n"; !strings.Contains(text, "\n"+line) {
			t.Errorf("exposition has no line %q", strings.TrimSpace(line))
		}
	}
	if rows != len(want) || len(body.Disk) != len(want) {
		t.Fatalf("%d disk rows, %d JSON disk keys; want %d", rows, len(body.Disk), len(want))
	}
	if strings.Contains(text, "shard=") {
		t.Error("a series carries a shard label")
	}

	for _, want := range []string{
		`flos_pagecache_mrc_hit_ratio{scale="0.25x"}`,
		`flos_pagecache_mrc_hit_ratio{scale="1x"}`,
		`flos_pagecache_mrc_hit_ratio{scale="4x"}`,
		`flos_pagecache_wss_estimate{window="1m0s"}`,
		`flos_pagecache_wss_estimate{window="10m0s"}`,
		"flos_pagecache_lens_sample_rate",
		`flos_result_cache_mrc_hit_ratio{scale="2x"}`,
		`flos_result_cache_wss_estimate{window="1m0s"}`,
		"flos_result_cache_lens_sample_rate",
		"flos_result_cache_capacity 8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if body.CacheCapacity != 8 {
		t.Fatalf("cache_capacity %d, want 8", body.CacheCapacity)
	}
	if body.CacheAnalytics == nil || body.CacheAnalytics.PageCache == nil || body.CacheAnalytics.ResultCache == nil {
		t.Fatalf("cache_analytics incomplete: %+v", body.CacheAnalytics)
	}
	if got, want := body.CacheAnalytics.PageCache.SampledAccesses, st.Hits+st.Misses; got != want {
		t.Fatalf("page lens sampled %d accesses at rate 1, the store counted %d row lookups", got, want)
	}
}
