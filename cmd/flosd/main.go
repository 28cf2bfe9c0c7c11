// Command flosd serves exact FLoS kNN queries over HTTP.
//
// Usage:
//
//	flosd -bin graph.bin -addr :8080
//	flosd -store big.flos -pagecache 256 -addr :8080
//	flosd -bin graph.bin -workers 16 -queue 128 -cache 4096 -timeout 2s
//	flosd -bin graph.bin -log-level debug -pprof :6060
//	flosd -bin graph.bin -live               # accept POST /v1/graph/edges
//
//	curl 'localhost:8080/v1/topk?q=42&k=10&measure=rwr'
//	curl 'localhost:8080/v1/topk?q=42&k=10&measure=rwr&trace=1'
//	curl 'localhost:8080/v1/unified?q=42&k=10'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'              # Prometheus text
//	curl 'localhost:8080/metrics?format=json'
//
// Queries run on a bounded worker pool (internal/qserve): -workers sets its
// size, -queue the admission queue that sheds overload with 429, -cache the
// result-cache capacity, and -timeout the per-query deadline. Disk-resident
// stores are served concurrently through the lock-striped page cache.
//
// -live wraps an in-memory graph (-graph or -bin) in a live-graph snapshot
// chain: POST /v1/graph/edges applies atomic mutation batches while queries
// keep running against their pinned snapshots, and the result cache is
// invalidated surgically (see internal/livegraph).
//
// The diagnostics plane is on by default: a flight recorder keeps the last
// -flightrec completed queries (outcome, latency, work counters, and a
// down-sampled convergence trajectory) and promotes queries over
// -slow-latency (or visiting more than -slow-visited nodes) into a retained
// slow-query log at /debug/flos/slow — dump that to a file and replay it
// offline with `flos -replay`. /debug/flos/slo reports rolling 5m/1h
// availability and latency burn rates against -slo-availability /
// -slo-latency-objective.
//
// Span tracing is on by default (-trace-ring 0 disables): every request runs
// under a root span with per-phase children, W3C traceparent headers are
// honored and echoed, and a trace is kept when the head sampler
// (-trace-sample) selects it or when it ends slow/shed/deadline/failed —
// so the p99 outlier is always retrievable as a span tree from
// /debug/flos/traces even at -trace-sample 0. The slow threshold is shared
// with -slow-latency.
//
// Cache analytics are on by default (-cachelens 0 disables): the page cache
// (-store) and the result cache each get a lens maintaining online miss-ratio
// curves at 0.25x..4x capacity via SHARDS-style sampling (-cachelens-sample
// sets the 1-in-N rate) and 1m/10m working-set estimates — exported as
// flos_pagecache_* / flos_result_cache_* gauges and GET /debug/flos/cache.
//
// Logs are structured (log/slog, text to stderr): one access record per
// request with its ID, status, and latency, plus per-query debug records at
// -log-level debug. -pprof exposes net/http/pprof on a separate listener so
// profiling never shares the query port.
package main

import (
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"flos"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
	"flos/internal/server"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "text edge-list file")
		binPath   = flag.String("bin", "", "binary CSR graph file")
		storePath = flag.String("store", "", "disk-resident store file")
		pageCache = flag.Int64("pagecache", 256, "page-cache budget for -store, MiB")
		addr      = flag.String("addr", ":8080", "listen address")
		maxK      = flag.Int("maxk", 1000, "largest accepted k")
		maxBatch  = flag.Int("maxbatch", 0, "largest accepted /v1/topk/batch query count and /v1/graph/edges op count (0 = 256)")
		workers   = flag.Int("workers", 0, "query worker count (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth; excess requests get 429 (0 = 4x workers)")
		cache     = flag.Int("cache", 0, "result-cache capacity, in entries of up to 16 result rows (0 = 1024, negative disables)")
		timeout   = flag.Duration("timeout", 0, "per-query deadline, e.g. 500ms or 2s (0 = none)")
		maxEps    = flag.Float64("max-epsilon", 0, "largest accepted /v1 epsilon budget (0 = 1.0, negative disables epsilon mode)")
		maxDL     = flag.Duration("max-deadline", 0, "cap on client-requested /v1 deadlines; longer ones are clamped (0 = 30s)")
		live      = flag.Bool("live", false, "serve a mutable live graph: accept POST /v1/graph/edges (requires -graph or -bin)")
		logLevel  = flag.String("log-level", "info", "log level: debug | info | warn | error")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060); empty disables")

		flightRec   = flag.Int("flightrec", 256, "flight-recorder ring size (0 disables the diagnostics plane)")
		slowLatency = flag.Duration("slow-latency", 250*time.Millisecond, "promote queries over this latency into the slow-query log (negative disables)")
		slowVisited = flag.Int("slow-visited", 0, "promote queries visiting more than this many nodes (0 disables)")
		slowKeep    = flag.Int("slow-keep", 64, "retained slow-query log entries")
		sloLatency  = flag.Duration("slo-latency", 100*time.Millisecond, "latency SLO threshold")
		sloAvail    = flag.Float64("slo-availability", 0.999, "availability objective (fraction of non-canceled queries that must succeed)")
		sloLatObj   = flag.Float64("slo-latency-objective", 0.99, "latency objective (fraction of successes under -slo-latency)")

		traceRing   = flag.Int("trace-ring", 256, "completed-trace ring size (0 disables span tracing)")
		traceSample = flag.Float64("trace-sample", 1.0, "head-sampling rate in [0,1]; slow/shed/deadline/failed traces are kept regardless")

		lensOn     = flag.Bool("cachelens", true, "cache analytics: miss-ratio curves and working-set windows on the page and result caches (GET /debug/flos/cache)")
		lensSample = flag.Int("cachelens-sample", 64, "cache-analytics spatial sampling rate: 1 key in N tracked (1 = exact, higher = cheaper)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
		Level: obs.ParseLogLevel(*logLevel),
	}))
	slog.SetDefault(logger)

	var g flos.Graph
	var store *flos.DiskGraph
	start := time.Now()
	switch {
	case *graphPath != "":
		mg, err := flos.LoadEdgeList(*graphPath)
		if err != nil {
			fatal(logger, "load edge list", err)
		}
		g = mg
	case *binPath != "":
		mg, err := flos.LoadBinary(*binPath)
		if err != nil {
			fatal(logger, "load binary graph", err)
		}
		g = mg
	case *storePath != "":
		dg, err := flos.OpenDiskGraph(*storePath, *pageCache<<20)
		if err != nil {
			fatal(logger, "open disk store", err)
		}
		defer dg.Close()
		g, store = dg, dg
	default:
		logger.Error("one of -graph, -bin, -store is required")
		os.Exit(1)
	}
	if *live {
		mg, ok := g.(*flos.MemGraph)
		if !ok {
			logger.Error("-live requires an in-memory graph (-graph or -bin); disk stores are immutable")
			os.Exit(1)
		}
		g = flos.NewLiveGraph(mg)
	}
	logger.Info("graph loaded",
		"nodes", g.NumNodes(), "edges", g.NumEdges(), "live", *live, "elapsed", time.Since(start))

	if *pprofAddr != "" {
		// The pprof import registers on http.DefaultServeMux; serve that mux
		// on its own listener so profiling stays off the query port.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Diagnostics plane: flight recorder + SLO tracker, shared between the
	// serving pool (which records into them) and the HTTP layer (which
	// serves /debug/flos/* and the flos_slo_* gauges from them).
	var rec *obs.FlightRecorder
	var slo *obs.SLOTracker
	if *flightRec > 0 {
		rec = obs.NewFlightRecorder(obs.RecorderConfig{
			Size:        *flightRec,
			SlowLatency: *slowLatency,
			SlowVisited: *slowVisited,
			SlowKeep:    *slowKeep,
		})
		slo = obs.NewSLOTracker(obs.SLOConfig{
			AvailabilityObjective: *sloAvail,
			LatencyObjective:      *sloLatObj,
			LatencyThreshold:      *sloLatency,
		})
	}

	// Span tracing: the tail-promotion latency threshold deliberately reuses
	// -slow-latency, so the slow-query log and the trace store promote the
	// same requests.
	var tracer *trace.Tracer
	if *traceRing > 0 {
		tcfg := trace.Config{
			HeadRate:    *traceSample,
			Ring:        *traceRing,
			SlowLatency: *slowLatency,
		}
		tracer = trace.New(tcfg)
		logger.Info("span tracing", "ring", *traceRing, "head_rate", *traceSample)
	}

	// Cache analytics: attach a lens to the page cache (disk stores) and the
	// result cache before any traffic flows. A 10s tick drives the working-set
	// windows.
	var resultLens *cachelens.Lens
	if *lensOn {
		const lensTick = 10 * time.Second
		if store != nil {
			pageLens := store.AttachLens(cachelens.Config{
				SampleRate: *lensSample,
				TickEvery:  lensTick,
			})
			defer pageLens.Close()
		}
		if *cache >= 0 {
			entries := *cache
			if entries == 0 {
				entries = 1024 // the pool's own default
			}
			resultLens = cachelens.New(cachelens.Config{
				Capacity:   entries,
				SampleRate: *lensSample,
				TickEvery:  lensTick,
			})
			defer resultLens.Close()
		}
		logger.Info("cache analytics",
			"sample_rate", *lensSample, "page_lens", store != nil, "result_lens", resultLens != nil)
	}

	srv := server.New(g, server.Config{
		MaxK:         *maxK,
		MaxBatch:     *maxBatch,
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		Timeout:      *timeout,
		MaxEpsilon:   *maxEps,
		MaxDeadline:  *maxDL,
		Logger:       logger,
		Recorder:     rec,
		SLO:          slo,
		Tracer:       tracer,
		CacheLens:    resultLens,
	})
	defer srv.Close()
	m := srv.Pool().Metrics()
	logger.Info("serving",
		"addr", *addr, "workers", m.Workers, "queue_cap", m.QueueCap,
		"cache_entries", *cache, "timeout", *timeout)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fatal(logger, "listener failed", err)
	}
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
