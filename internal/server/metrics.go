package server

// GET /metrics in both formats: the Prometheus text exposition and the
// ?format=json snapshot. Every scalar series is one row of metricTable,
// rendered by both formats; the structured blocks (per-measure latency,
// exemplars, SLO windows, cache analytics) keep their own code below the
// table.

import (
	"net/http"
	"runtime"
	"strconv"

	"flos/internal/diskgraph"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
)

// scrape is what one /metrics request reads, gathered once so that every
// row of a response reads the same instant.
type scrape struct {
	s    *Server
	m    qserve.Metrics
	rt   runtime.MemStats
	tr   trace.Stats
	disk diskgraph.Stats
}

func (s *Server) scrape() *scrape {
	sc := &scrape{s: s, m: s.pool.Metrics()}
	runtime.ReadMemStats(&sc.rt)
	if s.tracer != nil {
		sc.tr = s.tracer.Stats()
	}
	if s.store != nil {
		sc.disk = s.store.CacheStats()
	}
	return sc
}

// has reports whether a row group is present on this server. Both formats
// emit a group's rows only when it is, and JSON nests a named group's keys
// in an object of that name.
func (sc *scrape) has(group string) bool {
	switch group {
	case "live":
		return sc.s.pool.Live()
	case "traces":
		return sc.s.tracer != nil
	case "disk":
		return sc.s.store != nil
	case "flightrec":
		return sc.s.rec != nil
	}
	return true // the top level and runtime
}

type metricKind bool

const (
	gauge   metricKind = false
	counter metricKind = true
)

// metricRow declares one scalar series for both formats. An empty key or
// family is a series only the other format carries.
type metricRow struct {
	group  string // presence condition and JSON object; "" is the top level
	key    string // JSON key
	family string // Prometheus family
	labels map[string]string
	help   string
	kind   metricKind // the Prometheus type
	value  func(*scrape) float64
}

const (
	outcomesHelp   = "Served-query outcomes (ok+hit+deadline+canceled+failed = served)."
	tracesKeptHelp = "Traces retained, by sampling decision (head hash vs tail promotion)."
)

func label(k, v string) map[string]string { return map[string]string{k: v} }

// metricTable is every scalar series /metrics serves. JSON renders each
// value as a number, which keeps integers integers.
var metricTable = []metricRow{
	{"", "queries_served", "flos_queries_served_total", nil, "Queries answered, cache hits and interrupted queries included.", counter,
		func(c *scrape) float64 { return float64(c.m.Served) }},
	{"", "queries_shed", "flos_queries_shed_total", nil, "Admissions refused with 429 because the queue was full.", counter,
		func(c *scrape) float64 { return float64(c.m.Shed) }},
	{"", "queries_interrupted", "flos_queries_interrupted_total", nil, "Queries ended early by context deadline or cancellation.", counter,
		func(c *scrape) float64 { return float64(c.m.Interrupted) }},
	{"", "queries_ok", "flos_query_outcomes_total", label("outcome", "ok"), outcomesHelp, counter,
		func(c *scrape) float64 { return float64(c.m.OK) }},
	{"", "queries_cache_answered", "flos_query_outcomes_total", label("outcome", "hit"), outcomesHelp, counter,
		func(c *scrape) float64 { return float64(c.m.Hit) }},
	{"", "queries_deadline", "flos_query_outcomes_total", label("outcome", "deadline"), outcomesHelp, counter,
		func(c *scrape) float64 { return float64(c.m.Deadline) }},
	{"", "queries_canceled", "flos_query_outcomes_total", label("outcome", "canceled"), outcomesHelp, counter,
		func(c *scrape) float64 { return float64(c.m.Canceled) }},
	{"", "queries_failed", "flos_query_outcomes_total", label("outcome", "failed"), outcomesHelp, counter,
		func(c *scrape) float64 { return float64(c.m.Failed) }},
	{"", "queries_anytime_partial", "flos_query_anytime_partial_total", nil, "Anytime queries whose deadline fired mid-search: answered ok with an uncertified partial top-k.", counter,
		func(c *scrape) float64 { return float64(c.m.AnytimePartial) }},
	{"", "engine_iterations", "flos_engine_iterations_total", nil, "Local-expansion iterations across all searches.", counter,
		func(c *scrape) float64 { return float64(c.m.IterationsTotal) }},
	{"", "engine_visited_nodes", "flos_engine_visited_nodes_total", nil, "Visited-set sizes summed across all searches (the paper's locality metric).", counter,
		func(c *scrape) float64 { return float64(c.m.VisitedTotal) }},
	{"", "engine_sweeps", "flos_engine_sweeps_total", nil, "Bound-solver relaxations across all searches.", counter,
		func(c *scrape) float64 { return float64(c.m.SweepsTotal) }},
	{"", "queue_depth", "flos_queue_depth", nil, "Admitted queries waiting for a slot.", gauge,
		func(c *scrape) float64 { return float64(c.m.QueueDepth) }},
	{"", "queue_cap", "flos_queue_capacity", nil, "Admission queue bound.", gauge,
		func(c *scrape) float64 { return float64(c.m.QueueCap) }},
	{"", "workers", "flos_workers", nil, "Queries that run at once (pool slots).", gauge,
		func(c *scrape) float64 { return float64(c.m.Workers) }},
	{"", "cache_hits", "flos_result_cache_hits_total", nil, "Result-cache hits.", counter,
		func(c *scrape) float64 { return float64(c.m.CacheHits) }},
	{"", "cache_misses", "flos_result_cache_misses_total", nil, "Result-cache misses.", counter,
		func(c *scrape) float64 { return float64(c.m.CacheMisses) }},
	{"", "cache_evictions", "flos_result_cache_evictions_total", nil, "Result-cache evictions.", counter,
		func(c *scrape) float64 { return float64(c.m.CacheEvictions) }},
	{"", "cache_entries", "flos_result_cache_entries", nil, "Resident result-cache entries.", gauge,
		func(c *scrape) float64 { return float64(c.m.CacheEntries) }},
	{"", "cache_capacity", "flos_result_cache_capacity", nil, "Result-cache entry bound (entries/capacity = fill ratio).", gauge,
		func(c *scrape) float64 { return float64(c.m.CacheCapacity) }},
	{"", "cache_hit_ratio", "", nil, "", gauge,
		func(c *scrape) float64 { return c.m.CacheHitRatio() }},
	{"", "epoch", "flos_graph_epoch", nil, "Result-cache invalidation epoch.", gauge,
		func(c *scrape) float64 { return float64(c.m.Epoch) }},
	{"", "", "flos_graph_nodes", nil, "Nodes in the served graph.", gauge,
		func(c *scrape) float64 { return float64(c.s.g.NumNodes()) }},
	{"", "", "flos_graph_edges", nil, "Edges in the served graph.", gauge,
		func(c *scrape) float64 { return float64(c.s.g.NumEdges()) }},

	{"live", "snapshots_alive", "flos_live_snapshots_alive", nil, "Live-graph snapshots currently referenced (current + pinned).", gauge,
		func(c *scrape) float64 { return float64(c.m.SnapshotsAlive) }},
	{"live", "snapshots_total", "flos_live_snapshots_total", nil, "Live-graph snapshots ever published.", counter,
		func(c *scrape) float64 { return float64(c.m.SnapshotsTotal) }},
	{"live", "rows_cowed", "flos_live_rows_cowed_total", nil, "Adjacency rows re-materialized copy-on-write.", counter,
		func(c *scrape) float64 { return float64(c.m.RowsCoWed) }},
	{"live", "ops_applied", "flos_live_ops_applied_total", nil, "Edge mutations applied.", counter,
		func(c *scrape) float64 { return float64(c.m.OpsApplied) }},
	{"live", "invalidations_surgical", "flos_cache_invalidations_total", label("kind", "surgical"), "Result-cache entries evicted because a Mutate batch touched their read footprint.", counter,
		func(c *scrape) float64 { return float64(c.m.InvalidationsSurgical) }},
	{"live", "cache_retained", "flos_cache_retained_total", nil, "Cached results carried forward across mutation batches (footprint untouched).", counter,
		func(c *scrape) float64 { return float64(c.m.CacheRetained) }},
	{"live", "last_batch_surgical", "flos_result_cache_last_batch_invalidated", nil, "Entries the most recent mutation batch evicted surgically.", gauge,
		func(c *scrape) float64 { return float64(c.m.LastBatchSurgical) }},
	{"live", "last_batch_retained", "flos_result_cache_last_batch_survivors", nil, "Entries the most recent mutation batch carried forward untouched.", gauge,
		func(c *scrape) float64 { return float64(c.m.LastBatchRetained) }},

	{"traces", "started", "flos_traces_started_total", nil, "Requests that opened a trace.", counter,
		func(c *scrape) float64 { return float64(c.tr.Started) }},
	{"traces", "kept_head", "flos_traces_kept_total", label("sampled", "head"), tracesKeptHelp, counter,
		func(c *scrape) float64 { return float64(c.tr.KeptHead) }},
	{"traces", "kept_tail", "flos_traces_kept_total", label("sampled", "tail"), tracesKeptHelp, counter,
		func(c *scrape) float64 { return float64(c.tr.KeptTail) }},
	{"traces", "dropped", "flos_traces_dropped_total", nil, "Traces recorded but not retained (head-dropped, no tail condition).", counter,
		func(c *scrape) float64 { return float64(c.tr.Dropped) }},

	{"flightrec", "", "flos_flightrec_recorded_total", nil, "Queries captured by the flight recorder.", counter,
		func(c *scrape) float64 { return float64(c.s.rec.Recorded()) }},
	{"flightrec", "", "flos_flightrec_slow_total", nil, "Queries promoted into the slow-query log.", counter,
		func(c *scrape) float64 { return float64(c.s.rec.SlowCount()) }},

	{"disk", "page_hits", "flos_page_cache_hits_total", nil, "Store row reads served by pinned rows, with no file read.", counter,
		func(c *scrape) float64 { return float64(c.disk.Hits) }},
	{"disk", "page_faults", "flos_page_cache_faults_total", nil, "Store rows read from the file, one read each.", counter,
		func(c *scrape) float64 { return float64(c.disk.Misses) }},
	{"disk", "resident_bytes", "flos_page_cache_resident_bytes", nil, "Bytes of the pinned rows filled so far; never above the pinned-row budget.", gauge,
		func(c *scrape) float64 { return float64(c.disk.ResidentBytes) }},
	{"disk", "pinned_rows", "flos_page_cache_pinned_rows", nil, "Pinned rows filled so far.", gauge,
		func(c *scrape) float64 { return float64(c.disk.PinnedRows) }},

	{"runtime", "goroutines", "go_goroutines", nil, "Number of goroutines.", gauge,
		func(c *scrape) float64 { return float64(runtime.NumGoroutine()) }},
	{"runtime", "heap_alloc_bytes", "go_memstats_heap_alloc_bytes", nil, "Heap bytes allocated and in use.", gauge,
		func(c *scrape) float64 { return float64(c.rt.HeapAlloc) }},
	{"runtime", "heap_sys_bytes", "go_memstats_heap_sys_bytes", nil, "Heap bytes obtained from the OS.", gauge,
		func(c *scrape) float64 { return float64(c.rt.HeapSys) }},
	{"runtime", "num_gc", "go_gc_cycles_total", nil, "Completed GC cycles.", counter,
		func(c *scrape) float64 { return float64(c.rt.NumGC) }},
}

type measureLatencyBody struct {
	Count     int64 `json:"count"`
	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`
	// CacheAnswered counts this measure's result-cache answers, which never
	// enter the latency histogram above.
	CacheAnswered int64 `json:"cache_answered,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.metricsJSON(w)
		return
	}
	s.metricsProm(w)
}

func (s *Server) metricsJSON(w http.ResponseWriter) {
	sc := s.scrape()
	body := map[string]any{}
	for _, row := range metricTable {
		if row.key == "" || !sc.has(row.group) {
			continue
		}
		obj := body
		if row.group != "" {
			if obj, _ = body[row.group].(map[string]any); obj == nil {
				obj = map[string]any{}
				body[row.group] = obj
			}
		}
		obj[row.key] = row.value(sc)
	}

	if len(sc.m.LatencyByMeasure) > 0 {
		measures := make(map[string]measureLatencyBody, len(sc.m.LatencyByMeasure))
		for label, snap := range sc.m.LatencyByMeasure {
			measures[label] = measureLatencyBody{
				Count:         snap.Count,
				P50Micros:     snap.QuantileUS(0.50),
				P99Micros:     snap.QuantileUS(0.99),
				CacheAnswered: sc.m.HitByMeasure[label],
			}
		}
		body["measures"] = measures
	}
	// Each latency bucket's exemplar is the newest executed query the flight
	// recorder still holds in it: the join key into the recorder, the slow
	// log, the trace store and the access log.
	if s.rec != nil {
		if ex := s.rec.Exemplars(); len(ex) > 0 {
			body["latency_exemplars"] = ex
		}
	}
	if s.slo != nil {
		body["slo"] = s.slo.Snapshot()
	}
	if lens := s.cacheLens(); lens != nil {
		body["cache_analytics"] = lens
	}
	writeJSON(w, http.StatusOK, body)
}

// metricsProm writes the Prometheus text exposition.
func (s *Server) metricsProm(w http.ResponseWriter) {
	sc := s.scrape()
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewPromWriter(w)
	for _, row := range metricTable {
		if row.family == "" || !sc.has(row.group) {
			continue
		}
		if row.kind == counter {
			p.Counter(row.family, row.help, row.labels, int64(row.value(sc)))
		} else {
			p.Gauge(row.family, row.help, row.labels, row.value(sc))
		}
	}

	for _, label := range []string{"php", "ei", "dht", "tht", "rwr", "unified"} {
		if snap, ok := sc.m.LatencyByMeasure[label]; ok {
			p.Histogram("flos_query_latency_seconds", "Executed query latency by proximity measure.",
				map[string]string{"measure": label}, snap)
		}
	}
	for _, rt := range s.routes {
		if h := s.httpLat[rt.path]; h.Count() > 0 {
			p.Histogram("flos_http_request_duration_seconds", "HTTP request latency by endpoint.",
				map[string]string{"endpoint": rt.path}, h.Snapshot())
		}
	}
	if pl := s.pageLens(); pl != nil {
		lensProm(p, "flos_pagecache", "store row", pl.Snapshot())
	}
	if s.resultLens != nil {
		lensProm(p, "flos_result_cache", "result cache", s.resultLens.Snapshot())
	}
	if s.slo != nil {
		snap := s.slo.Snapshot()
		p.Gauge("flos_slo_availability_objective", "Configured availability objective.", nil, snap.AvailabilityObjective)
		p.Gauge("flos_slo_latency_objective", "Configured latency objective (fraction under threshold).", nil, snap.LatencyObjective)
		p.Gauge("flos_slo_latency_threshold_seconds", "Latency SLO threshold.", nil, float64(snap.LatencyThresholdUS)/1e6)
		for _, win := range snap.Windows {
			lbl := map[string]string{"window": win.Window}
			p.Gauge("flos_slo_availability", "Rolling availability (1 when idle).", lbl, win.Availability)
			p.Gauge("flos_slo_availability_burn_rate", "Availability error-budget burn rate (1.0 = sustainable).", lbl, win.AvailabilityBurnRate)
			p.Gauge("flos_slo_latency_compliance", "Fraction of successful queries under the latency threshold.", lbl, win.LatencyCompliance)
			p.Gauge("flos_slo_latency_burn_rate", "Latency error-budget burn rate (1.0 = sustainable).", lbl, win.LatencyBurnRate)
		}
	}
	if err := p.Err(); err != nil {
		s.log.Warn("metrics exposition write failed", "err", err)
	}
}

// scaleLabel renders an MRC capacity multiple as its metric label: 0.25 →
// "0.25x", 1 → "1x".
func scaleLabel(s float64) string {
	return strconv.FormatFloat(s, 'g', -1, 64) + "x"
}

// lensProm writes one cache-analytics lens as Prometheus gauges under the
// given metric prefix (flos_pagecache / flos_result_cache): the miss-ratio
// curve by scale and the working-set estimates by window.
func lensProm(p *obs.PromWriter, prefix, what string, snap cachelens.Snapshot) {
	for _, pt := range snap.Curve {
		p.Gauge(prefix+"_mrc_hit_ratio",
			"Estimated "+what+" hit ratio at a multiple of deployed capacity (SHARDS-sampled miss-ratio curve).",
			map[string]string{"scale": scaleLabel(pt.Scale)}, pt.EstHitRatio)
	}
	p.Gauge(prefix+"_lens_sample_rate", "Lens spatial sampling rate (1 in N keys tracked).", nil, float64(snap.SampleRate))
	for _, ws := range snap.WorkingSet {
		win := map[string]string{"window": ws.Window}
		p.Gauge(prefix+"_wss_estimate", "Estimated distinct "+what+" entries touched in the last completed window (scaled sampled count).", win, float64(ws.DistinctEst))
	}
}
