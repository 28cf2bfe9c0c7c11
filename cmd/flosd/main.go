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
// Exactly one of -graph, -bin and -store names the graph; flags that
// contradict each other, and a negative -maxk, -maxbatch or -max-deadline,
// are refused at start-up.
//
// Each query runs on its request's goroutine while it holds one of the
// query pool's slots (internal/qserve): -workers sets how many queries run
// at once, -queue how many may wait to run before overload is shed with
// 429, -cache the result-cache capacity, and -timeout the per-query
// deadline. Disk-resident stores are served concurrently with one read
// per visited row, exactly the row's bytes; -pagecache is a budget of
// pinned hub rows, the longest rows first, each held in memory from its
// first read on and served without a file read after that. The store's
// node table (16 B per node) is read at start-up outside that budget.
//
// -live wraps an in-memory graph (-graph or -bin) in a live-graph snapshot
// chain: POST /v1/graph/edges applies atomic mutation batches while queries
// keep running against their pinned snapshots, and the result cache is
// invalidated surgically (see internal/livegraph).
//
// The diagnostics plane is on by default (-flightrec 0 turns all of it off):
// a flight recorder keeps the last -flightrec completed queries (outcome,
// latency, work counters, and a down-sampled convergence trajectory) and
// promotes queries over -slow-latency into a retained slow-query log at
// /debug/flos/slow — dump that to a file and replay it offline with
// `flos -replay`. /debug/flos/slo reports rolling 5m/1h availability and
// latency burn rates against -slo-availability / -slo-latency-objective.
//
// Span tracing rides the same switch: every request runs under a root span
// with per-phase children, W3C traceparent headers are honored and echoed,
// the last -flightrec kept traces are served from /debug/flos/traces, and a
// trace is kept when the head sampler (-trace-sample) selects it or when it
// ends slow/shed/deadline/failed — so the p99 outlier is always retrievable
// as a span tree even at -trace-sample 0. The slow threshold is shared with
// -slow-latency.
//
// Cache analytics are on by default (-cachelens=false disables): a
// store's row lookups (-store; capacity = its pinned rows) and the result
// cache each get a lens maintaining online miss-ratio curves at
// 0.25x..4x capacity via SHARDS-style sampling and 1m/10m working-set
// estimates — exported as flos_pagecache_* / flos_result_cache_* gauges
// and GET /debug/flos/cache.
//
// SIGTERM or SIGINT drains the server: it stops accepting connections,
// lets running requests answer, closes the store and exits 0.
//
// Logs are structured (log/slog, text to stderr): one access record per
// request with its ID, status, and latency, plus per-query debug records at
// -log-level debug. -pprof exposes net/http/pprof on a separate listener so
// profiling never shares the query port.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flos"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
	"flos/internal/server"
)

// config is flosd's command line: every flag binds one field.
type config struct {
	graph, bin, store string
	pageCacheMiB      int64
	addr              string
	live              bool
	logLevel, pprof   string

	srv         server.Config      // pool shape and /v1 limits
	rec         obs.RecorderConfig // Size also bounds the completed-trace ring
	slo         obs.SLOConfig
	traceSample float64
	cacheLens   bool
}

func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.graph, "graph", "", "text edge-list file")
	fs.StringVar(&c.bin, "bin", "", "binary CSR graph file")
	fs.StringVar(&c.store, "store", "", "disk-resident store file")
	fs.Int64Var(&c.pageCacheMiB, "pagecache", 256, "pinned-row budget for -store, MiB: the longest rows, kept in memory from their first read; the store's node table, 16 B per node, is held outside it")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&c.live, "live", false, "serve a mutable live graph: accept POST /v1/graph/edges (requires -graph or -bin)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug | info | warn | error")
	fs.StringVar(&c.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. :6060); empty disables")

	fs.IntVar(&c.srv.MaxK, "maxk", 1000, "largest accepted k")
	fs.IntVar(&c.srv.MaxBatch, "maxbatch", 0, "largest accepted /v1/topk/batch query count and /v1/graph/edges op count (0 = 256)")
	fs.IntVar(&c.srv.Workers, "workers", 0, "queries run at once (0 = GOMAXPROCS)")
	fs.IntVar(&c.srv.QueueDepth, "queue", 0, "queries waiting to run; excess requests get 429 (0 = 4x workers)")
	fs.IntVar(&c.srv.CacheEntries, "cache", 0, "result-cache capacity, in entries of up to 16 result rows (0 = 1024, negative disables)")
	fs.DurationVar(&c.srv.Timeout, "timeout", 0, "per-query deadline, e.g. 500ms or 2s (0 = none)")
	fs.Float64Var(&c.srv.MaxEpsilon, "max-epsilon", 0, "largest accepted /v1 epsilon budget (0 = 1.0, negative disables epsilon mode)")
	fs.DurationVar(&c.srv.MaxDeadline, "max-deadline", 0, "cap on client-requested /v1 deadlines; longer ones are clamped (0 = 30s)")

	fs.IntVar(&c.rec.Size, "flightrec", 256, "flight-recorder and completed-trace ring size (0 disables the diagnostics plane: recorder, SLO tracking and span tracing)")
	fs.DurationVar(&c.rec.SlowLatency, "slow-latency", 250*time.Millisecond, "promote queries over this latency into the slow-query log and keep their traces (negative disables)")
	fs.DurationVar(&c.slo.LatencyThreshold, "slo-latency", 100*time.Millisecond, "latency SLO threshold")
	fs.Float64Var(&c.slo.AvailabilityObjective, "slo-availability", 0.999, "availability objective (fraction of non-canceled queries that must succeed)")
	fs.Float64Var(&c.slo.LatencyObjective, "slo-latency-objective", 0.99, "latency objective (fraction of successes under -slo-latency)")
	fs.Float64Var(&c.traceSample, "trace-sample", 1.0, "head-sampling rate in [0,1]; slow/shed/deadline/failed traces are kept regardless")
	fs.BoolVar(&c.cacheLens, "cachelens", true, "cache analytics: miss-ratio curves and working-set windows on the page and result caches (GET /debug/flos/cache)")
}

// Validate refuses a command line whose flags contradict each other.
func (c *config) Validate() error {
	graphs := 0
	for _, path := range []string{c.graph, c.bin, c.store} {
		if path != "" {
			graphs++
		}
	}
	switch {
	case graphs != 1:
		return errors.New("exactly one of -graph, -bin, -store is required")
	case c.live && c.store != "":
		return errors.New("-live requires an in-memory graph (-graph or -bin); disk stores are immutable")
	case c.store != "" && c.pageCacheMiB <= 0:
		return errors.New("-pagecache must be positive with -store")
	case !(c.traceSample >= 0 && c.traceSample <= 1): // NaN fails too
		return errors.New("-trace-sample must be in [0, 1]")
	// The server replaces only a zero limit with its default; a negative one
	// would refuse every query, every batch, or every client deadline.
	case c.srv.MaxK < 0:
		return errors.New("-maxk must not be negative")
	case c.srv.MaxBatch < 0:
		return errors.New("-maxbatch must not be negative")
	case c.srv.MaxDeadline < 0:
		return errors.New("-max-deadline must not be negative")
	}
	return nil
}

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{
		Level: obs.ParseLogLevel(cfg.logLevel),
	}))
	slog.SetDefault(logger)
	if err := cfg.Validate(); err != nil {
		logger.Error("invalid flags", "err", err)
		os.Exit(2)
	}

	var g flos.Graph
	var store *flos.DiskGraph
	start := time.Now()
	switch {
	case cfg.graph != "":
		mg, err := flos.LoadEdgeList(cfg.graph)
		if err != nil {
			fatal(logger, "load edge list", err)
		}
		g = mg
	case cfg.bin != "":
		mg, err := flos.LoadBinary(cfg.bin)
		if err != nil {
			fatal(logger, "load binary graph", err)
		}
		g = mg
	default:
		dg, err := flos.OpenDiskGraph(cfg.store, cfg.pageCacheMiB<<20)
		if err != nil {
			fatal(logger, "open disk store", err)
		}
		defer dg.Close()
		g, store = dg, dg
	}
	if cfg.live {
		g = flos.NewLiveGraph(g.(*flos.MemGraph))
	}
	logger.Info("graph loaded",
		"nodes", g.NumNodes(), "edges", g.NumEdges(), "live", cfg.live, "elapsed", time.Since(start))

	if cfg.pprof != "" {
		// The pprof import registers on http.DefaultServeMux; serve that mux
		// on its own listener so profiling stays off the query port.
		go func() {
			logger.Info("pprof listening", "addr", cfg.pprof)
			if err := http.ListenAndServe(cfg.pprof, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Diagnostics plane: flight recorder, SLO tracker and span tracer, shared
	// between the serving pool (which records into them) and the HTTP layer
	// (which serves /debug/flos/* and the flos_slo_* gauges from them). The
	// tracer's tail-promotion threshold is -slow-latency, so the slow-query
	// log and the trace store promote the same requests.
	srvCfg := cfg.srv
	srvCfg.Logger = logger
	if cfg.rec.Size > 0 {
		srvCfg.Recorder = obs.NewFlightRecorder(cfg.rec)
		srvCfg.SLO = obs.NewSLOTracker(cfg.slo)
		srvCfg.Tracer = trace.New(trace.Config{
			HeadRate:    cfg.traceSample,
			Ring:        cfg.rec.Size,
			SlowLatency: cfg.rec.SlowLatency,
		})
		logger.Info("diagnostics", "ring", cfg.rec.Size, "head_rate", cfg.traceSample)
	}

	// Cache analytics: attach a lens to the store's row lookups (disk stores)
	// and the result cache before any traffic flows. A 10s tick drives the working-set
	// windows.
	if cfg.cacheLens {
		const lensTick = 10 * time.Second
		if store != nil {
			defer store.AttachLens(cachelens.Config{TickEvery: lensTick}).Close()
		}
		if entries := cfg.srv.CacheEntries; entries >= 0 {
			if entries == 0 {
				entries = qserve.DefaultCacheEntries
			}
			srvCfg.CacheLens = cachelens.New(cachelens.Config{Capacity: entries, TickEvery: lensTick})
			defer srvCfg.CacheLens.Close()
		}
		logger.Info("cache analytics", "page_lens", store != nil, "result_lens", srvCfg.CacheLens != nil)
	}

	srv := server.New(g, srvCfg)
	m := srv.Pool().Metrics()
	logger.Info("serving",
		"addr", cfg.addr, "workers", m.Workers, "queue_cap", m.QueueCap,
		"cache_entries", cfg.srv.CacheEntries, "timeout", cfg.srv.Timeout)

	// SIGTERM or SIGINT drains: the listener stops accepting, running
	// requests answer, and main returns so the deferred store and lens
	// Close calls run. A second signal kills the process the default way.
	sig, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	hs := &http.Server{Addr: cfg.addr, Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		fatal(logger, "listener failed", err)
	case <-sig.Done():
	}
	stop()
	logger.Info("draining")
	if err := hs.Shutdown(context.Background()); err != nil {
		logger.Error("shutdown", "err", err)
	}
	srv.Close()
	logger.Info("stopped")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
