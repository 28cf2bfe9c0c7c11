package server

// GET /metrics in both formats: the Prometheus text exposition and the
// ?format=json snapshot.

import (
	"net/http"
	"runtime"
	"strconv"

	"flos/internal/obs"
	"flos/internal/obs/cachelens"
)

// metricsBody is the /metrics?format=json payload.
type metricsBody struct {
	QueriesServed  int64   `json:"queries_served"`
	QueriesShed    int64   `json:"queries_shed"`
	Interrupted    int64   `json:"queries_interrupted"`
	Batches        int64   `json:"batches_served"`
	QueriesOK      int64   `json:"queries_ok"`
	QueriesHit     int64   `json:"queries_cache_answered"`
	Deadline       int64   `json:"queries_deadline"`
	Canceled       int64   `json:"queries_canceled"`
	Failed         int64   `json:"queries_failed"`
	Iterations     int64   `json:"engine_iterations"`
	VisitedNodes   int64   `json:"engine_visited_nodes"`
	Sweeps         int64   `json:"engine_sweeps"`
	P50Micros      int64   `json:"latency_p50_us"`
	P99Micros      int64   `json:"latency_p99_us"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_cap"`
	Workers        int     `json:"workers"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	Epoch          uint64  `json:"epoch"`

	// Measures holds per-measure latency summaries for labels that saw
	// traffic.
	Measures map[string]measureLatencyBody `json:"measures,omitempty"`

	// Exemplars lists, for each overall-latency bucket holding one, the
	// request ID of its most recent sample — the join key into the flight
	// recorder, slow-query log, and access logs.
	Exemplars []exemplarBody `json:"latency_exemplars,omitempty"`

	// Live holds live-graph serving counters; present only when the server
	// runs a livegraph.LiveGraph (flosd -live).
	Live *liveMetricsBody `json:"live,omitempty"`

	// SLO is the burn-rate snapshot; present when SLO tracking is on.
	SLO *obs.SLOSnapshot `json:"slo,omitempty"`

	// Traces holds the span tracer's retention counters; present when span
	// tracing is on.
	Traces *traceMetricsBody `json:"traces,omitempty"`

	// Runtime gauges.
	Runtime runtimeBody `json:"runtime"`

	// Disk page-cache counters; present only for disk-resident graphs.
	Disk *diskMetricsBody `json:"disk,omitempty"`

	// CacheAnalytics mirrors GET /debug/flos/cache; present when at least
	// one cache has an analytics lens attached.
	CacheAnalytics *cacheLensBody `json:"cache_analytics,omitempty"`
}

type measureLatencyBody struct {
	Count     int64 `json:"count"`
	P50Micros int64 `json:"p50_us"`
	P99Micros int64 `json:"p99_us"`
	// CacheAnswered counts this measure's result-cache answers, which never
	// enter the latency histogram above.
	CacheAnswered int64 `json:"cache_answered,omitempty"`
}

// exemplarBody is one latency bucket's exemplar. TraceID, when the sampled
// request ran under span tracing, is the join key into /debug/flos/traces.
type exemplarBody struct {
	// BucketLEUS is the bucket's inclusive upper bound in microseconds.
	BucketLEUS int64  `json:"bucket_le_us"`
	ID         string `json:"id"`
	TraceID    string `json:"trace_id,omitempty"`
	LatencyUS  int64  `json:"latency_us"`
}

// exemplarBodies flattens a snapshot's per-bucket exemplars.
func exemplarBodies(snap obs.Snapshot) []exemplarBody {
	bounds := obs.BucketBoundsUS()
	var out []exemplarBody
	for i, ex := range snap.Exemplars {
		if ex != nil {
			out = append(out, exemplarBody{BucketLEUS: bounds[i], ID: ex.ID, TraceID: ex.TraceID, LatencyUS: ex.LatencyUS})
		}
	}
	return out
}

// traceMetricsBody is the metrics view of the tracer's retention counters.
type traceMetricsBody struct {
	Started  uint64 `json:"started"`
	KeptHead uint64 `json:"kept_head"`
	KeptTail uint64 `json:"kept_tail"`
	Dropped  uint64 `json:"dropped"`
}

// liveMetricsBody carries the live-graph serving counters: the snapshot
// chain gauges and the surgical-invalidation split.
type liveMetricsBody struct {
	SnapshotsAlive        int64 `json:"snapshots_alive"`
	SnapshotsTotal        int64 `json:"snapshots_total"`
	RowsCoWed             int64 `json:"rows_cowed"`
	OpsApplied            int64 `json:"ops_applied"`
	InvalidationsSurgical int64 `json:"invalidations_surgical"`
	CacheRetained         int64 `json:"cache_retained"`

	// LastBatchSurgical / LastBatchRetained partition the cache entries the
	// most recent mutation batch saw: evicted surgically vs carried forward —
	// the per-epoch survivor gauge.
	LastBatchSurgical int64 `json:"last_batch_surgical"`
	LastBatchRetained int64 `json:"last_batch_retained"`
}

type runtimeBody struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

type diskMetricsBody struct {
	PageHits      int64 `json:"page_hits"`
	PageFaults    int64 `json:"page_faults"`
	FaultsDeduped int64 `json:"faults_deduped"`
	Evictions     int64 `json:"evictions"`
	ResidentBytes int64 `json:"resident_bytes"`
	ResidentPages int   `json:"resident_pages"`
	// ResidentPagesHWM is the all-time occupancy peak (summed over stripes):
	// well under budget means the budget never bound; at budget with a high
	// eviction rate means the working set does not fit.
	ResidentPagesHWM int `json:"resident_pages_hwm"`
	Shards           int `json:"shards"`

	// PerShard breaks the counters down by lock stripe.
	PerShard []shardBody `json:"per_shard"`
}

type shardBody struct {
	Shard            int   `json:"shard"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	FaultsDeduped    int64 `json:"faults_deduped"`
	Evictions        int64 `json:"evictions"`
	ResidentBytes    int64 `json:"resident_bytes"`
	ResidentPages    int   `json:"resident_pages"`
	ResidentPagesHWM int   `json:"resident_pages_hwm"`
}

func readRuntime() runtimeBody {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeBody{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		s.metricsJSON(w)
		return
	}
	s.metricsProm(w)
}

func (s *Server) metricsJSON(w http.ResponseWriter) {
	m := s.pool.Metrics()
	body := metricsBody{
		QueriesServed:  m.Served,
		QueriesShed:    m.Shed,
		Interrupted:    m.Interrupted,
		Batches:        m.Batches,
		QueriesOK:      m.OK,
		QueriesHit:     m.Hit,
		Deadline:       m.Deadline,
		Canceled:       m.Canceled,
		Failed:         m.Failed,
		Iterations:     m.IterationsTotal,
		VisitedNodes:   m.VisitedTotal,
		Sweeps:         m.SweepsTotal,
		P50Micros:      m.P50Micros,
		P99Micros:      m.P99Micros,
		QueueDepth:     m.QueueDepth,
		QueueCap:       m.QueueCap,
		Workers:        m.Workers,
		CacheHits:      m.CacheHits,
		CacheMisses:    m.CacheMisses,
		CacheEvictions: m.CacheEvictions,
		CacheEntries:   m.CacheEntries,
		CacheCapacity:  m.CacheCapacity,
		CacheHitRatio:  m.CacheHitRatio(),
		Epoch:          m.Epoch,
		Runtime:        readRuntime(),
	}
	if len(m.LatencyByMeasure) > 0 {
		body.Measures = make(map[string]measureLatencyBody, len(m.LatencyByMeasure))
		for label, snap := range m.LatencyByMeasure {
			body.Measures[label] = measureLatencyBody{
				Count:         snap.Count,
				P50Micros:     snap.QuantileUS(0.50),
				P99Micros:     snap.QuantileUS(0.99),
				CacheAnswered: m.HitByMeasure[label],
			}
		}
	}
	body.Exemplars = exemplarBodies(m.Latency)
	if s.pool.Live() {
		body.Live = &liveMetricsBody{
			SnapshotsAlive:        m.SnapshotsAlive,
			SnapshotsTotal:        m.SnapshotsTotal,
			RowsCoWed:             m.RowsCoWed,
			OpsApplied:            m.OpsApplied,
			InvalidationsSurgical: m.InvalidationsSurgical,
			CacheRetained:         m.CacheRetained,
			LastBatchSurgical:     m.LastBatchSurgical,
			LastBatchRetained:     m.LastBatchRetained,
		}
	}
	if s.slo != nil {
		snap := s.slo.Snapshot()
		body.SLO = &snap
	}
	if s.tracer != nil {
		st := s.tracer.Stats()
		body.Traces = &traceMetricsBody{
			Started:  st.Started,
			KeptHead: st.KeptHead,
			KeptTail: st.KeptTail,
			Dropped:  st.Dropped,
		}
	}
	if s.store != nil {
		st := s.store.CacheStats()
		disk := &diskMetricsBody{
			PageHits:         st.Hits,
			PageFaults:       st.Misses,
			FaultsDeduped:    st.FaultsDeduped,
			Evictions:        st.Evictions,
			ResidentBytes:    st.ResidentBytes,
			ResidentPages:    st.ResidentPages,
			ResidentPagesHWM: st.ResidentPagesHWM,
			Shards:           st.Shards,
		}
		for _, ss := range s.store.ShardStats() {
			disk.PerShard = append(disk.PerShard, shardBody{
				Shard:            ss.Shard,
				Hits:             ss.Hits,
				Misses:           ss.Misses,
				FaultsDeduped:    ss.FaultsDeduped,
				Evictions:        ss.Evictions,
				ResidentBytes:    ss.ResidentBytes,
				ResidentPages:    ss.ResidentPages,
				ResidentPagesHWM: ss.ResidentPagesHWM,
			})
		}
		body.Disk = disk
	}
	body.CacheAnalytics = s.cacheLens()
	writeJSON(w, http.StatusOK, body)
}

// metricsProm writes the Prometheus text exposition.
func (s *Server) metricsProm(w http.ResponseWriter) {
	m := s.pool.Metrics()
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewPromWriter(w)

	p.Counter("flos_queries_served_total", "Queries answered, cache hits and interrupted queries included.", nil, m.Served)
	p.Counter("flos_queries_shed_total", "Admissions refused with 429 because the queue was full.", nil, m.Shed)
	p.Counter("flos_queries_interrupted_total", "Queries ended early by context deadline or cancellation.", nil, m.Interrupted)
	p.Counter("flos_batches_served_total", "DoBatch calls; member queries count in flos_queries_served_total.", nil, m.Batches)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "ok"}, m.OK)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "hit"}, m.Hit)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "deadline"}, m.Deadline)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "canceled"}, m.Canceled)
	p.Counter("flos_query_outcomes_total", "Served-query outcomes (ok+hit+deadline+canceled+failed = served).", map[string]string{"outcome": "failed"}, m.Failed)
	p.Counter("flos_engine_iterations_total", "Local-expansion iterations across all searches.", nil, m.IterationsTotal)
	p.Counter("flos_engine_visited_nodes_total", "Visited-set sizes summed across all searches (the paper's locality metric).", nil, m.VisitedTotal)
	p.Counter("flos_engine_sweeps_total", "Bound-solver relaxations across all searches.", nil, m.SweepsTotal)

	for _, label := range []string{"php", "ei", "dht", "tht", "rwr", "unified"} {
		if snap, ok := m.LatencyByMeasure[label]; ok {
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

	p.Gauge("flos_queue_depth", "Admitted queries waiting for a worker.", nil, float64(m.QueueDepth))
	p.Gauge("flos_queue_capacity", "Admission queue bound.", nil, float64(m.QueueCap))
	p.Gauge("flos_workers", "Query worker count.", nil, float64(m.Workers))
	p.Counter("flos_result_cache_hits_total", "Result-cache hits.", nil, m.CacheHits)
	p.Counter("flos_result_cache_misses_total", "Result-cache misses.", nil, m.CacheMisses)
	p.Counter("flos_result_cache_evictions_total", "Result-cache evictions.", nil, m.CacheEvictions)
	p.Gauge("flos_result_cache_entries", "Resident result-cache entries.", nil, float64(m.CacheEntries))
	p.Gauge("flos_result_cache_capacity", "Result-cache entry bound (entries/capacity = fill ratio).", nil, float64(m.CacheCapacity))
	p.Gauge("flos_graph_epoch", "Result-cache invalidation epoch.", nil, float64(m.Epoch))
	p.Gauge("flos_graph_nodes", "Nodes in the served graph.", nil, float64(s.g.NumNodes()))
	p.Gauge("flos_graph_edges", "Edges in the served graph.", nil, float64(s.g.NumEdges()))
	p.Counter("flos_cache_invalidations_total", "Result-cache entries evicted because a Mutate batch touched their read footprint.", map[string]string{"kind": "surgical"}, m.InvalidationsSurgical)
	p.Counter("flos_cache_retained_total", "Cached results carried forward across mutation batches (footprint untouched).", nil, m.CacheRetained)
	if s.pool.Live() {
		p.Gauge("flos_live_snapshots_alive", "Live-graph snapshots currently referenced (current + pinned).", nil, float64(m.SnapshotsAlive))
		p.Counter("flos_live_snapshots_total", "Live-graph snapshots ever published.", nil, m.SnapshotsTotal)
		p.Counter("flos_live_rows_cowed_total", "Adjacency rows re-materialized copy-on-write.", nil, m.RowsCoWed)
		p.Counter("flos_live_ops_applied_total", "Edge mutations applied.", nil, m.OpsApplied)
		p.Gauge("flos_result_cache_last_batch_invalidated", "Entries the most recent mutation batch evicted surgically.", nil, float64(m.LastBatchSurgical))
		p.Gauge("flos_result_cache_last_batch_survivors", "Entries the most recent mutation batch carried forward untouched.", nil, float64(m.LastBatchRetained))
	}

	if s.store != nil {
		for _, ss := range s.store.ShardStats() {
			shard := map[string]string{"shard": strconv.Itoa(ss.Shard)}
			p.Counter("flos_page_cache_hits_total", "Page-cache hits by lock shard.", shard, ss.Hits)
			p.Counter("flos_page_cache_faults_total", "Page faults (disk reads) by lock shard.", shard, ss.Misses)
			p.Counter("flos_page_cache_faults_deduped_total", "Faults deduplicated singleflight-style by lock shard.", shard, ss.FaultsDeduped)
			p.Counter("flos_page_cache_evictions_total", "Pages evicted by LRU to stay under budget, by lock shard.", shard, ss.Evictions)
			p.Gauge("flos_page_cache_resident_bytes", "Resident page bytes by lock shard.", shard, float64(ss.ResidentBytes))
			p.Gauge("flos_page_cache_resident_pages", "Resident pages by lock shard.", shard, float64(ss.ResidentPages))
			p.Gauge("flos_page_cache_resident_pages_hwm", "All-time resident-page peak by lock shard.", shard, float64(ss.ResidentPagesHWM))
		}
	}
	if pl := s.pageLens(); pl != nil {
		lensProm(p, "flos_pagecache", "page cache", pl.Snapshot())
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
	if s.rec != nil {
		p.Counter("flos_flightrec_recorded_total", "Queries captured by the flight recorder.", nil, int64(s.rec.Recorded()))
		p.Counter("flos_flightrec_slow_total", "Queries promoted into the slow-query log.", nil, int64(s.rec.SlowCount()))
	}
	if s.tracer != nil {
		ts := s.tracer.Stats()
		p.Counter("flos_traces_started_total", "Requests that opened a trace.", nil, int64(ts.Started))
		p.Counter("flos_traces_kept_total", "Traces retained, by sampling decision (head hash vs tail promotion).", map[string]string{"sampled": "head"}, int64(ts.KeptHead))
		p.Counter("flos_traces_kept_total", "Traces retained, by sampling decision (head hash vs tail promotion).", map[string]string{"sampled": "tail"}, int64(ts.KeptTail))
		p.Counter("flos_traces_dropped_total", "Traces recorded but not retained (head-dropped, no tail condition).", nil, int64(ts.Dropped))
	}

	rt := readRuntime()
	p.Gauge("go_goroutines", "Number of goroutines.", nil, float64(rt.Goroutines))
	p.Gauge("go_memstats_heap_alloc_bytes", "Heap bytes allocated and in use.", nil, float64(rt.HeapAllocBytes))
	p.Gauge("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.", nil, float64(rt.HeapSysBytes))
	p.Counter("go_gc_cycles_total", "Completed GC cycles.", nil, int64(rt.NumGC))
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
	p.Gauge(prefix+"_lens_hit_ratio", "Measured "+what+" hit ratio over the lens's lifetime (calibration for the curve's 1x point).", nil, snap.HitRatio)
	p.Gauge(prefix+"_lens_sample_rate", "Lens spatial sampling rate (1 in N keys tracked).", nil, float64(snap.SampleRate))
	for _, ws := range snap.WorkingSet {
		win := map[string]string{"window": ws.Window}
		p.Gauge(prefix+"_wss_estimate", "Estimated distinct "+what+" entries touched in the last completed window (scaled sampled count).", win, float64(ws.DistinctEst))
	}
}
