package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
	"flos/internal/qserve"
	"flos/internal/server"
)

// The traced pass executes each sampled request down a ladder of entry
// points, outermost first. Every rung runs the whole request through its own
// instance of the stack below it, so a layer's self time is its rung minus
// the rung below (selfTimes). All spans are recorded here, around the calls
// into each layer's public functions; nothing inside the program is timed.
const (
	rungHTTP    = iota // loopback HTTP into a server with flosd's default diagnostics
	rungObs            // Handler().ServeHTTP on a recorder, same diagnostics
	rungHandler        // Handler().ServeHTTP with no diagnostics
	rungPool           // Pool.Do / Pool.Mutate
	rungBackend        // engine on the workload's backend / LiveGraph.Apply
	rungMem            // engine on the plain MemGraph
	numRungs
)

var rungNames = [numRungs]string{
	"rung.http", "rung.handler+obs", "rung.handler", "rung.pool", "rung.engine@backend", "rung.engine@mem",
}

// Layer indexes of a selfTimes result: layer i is what rung i adds on top of
// rung i+1.
const (
	layerNet     = rungHTTP    // server.net_us: sockets, net/http client and server
	layerObs     = rungObs     // obs.self_us: diagnostics on minus off
	layerServer  = rungHandler // server.self_us: routing, parsing, JSON encoding
	layerQserve  = rungPool    // qserve: admission, cache, worker hand-off (the whole hit path on a hit)
	layerBackend = rungBackend // diskgraph / livegraph: backend minus memory (Apply itself on a mutation)
	layerCore    = rungMem     // core + core/kernel: the search itself
)

// selfTimes turns rung durations into per-layer self times: each rung minus
// the rung below it, the last rung keeping its whole duration. A rung that
// did not run (cache hit: no engine work; mutation: no search) is 0, which
// makes the layer above it absorb the remainder — on a hit, qserve's self
// time is the whole hit path. The self times always sum to the top rung.
func selfTimes(rungs [numRungs]time.Duration) [numRungs]time.Duration {
	var self [numRungs]time.Duration
	for i := range rungs {
		self[i] = rungs[i]
		if i+1 < numRungs {
			self[i] -= rungs[i+1]
		}
	}
	return self
}

// ladderSample is one request's trip down the ladder.
type ladderSample struct {
	req   request
	hit   bool
	start [numRungs]time.Time
	rungs [numRungs]time.Duration

	// Engine detail from the rungMem execution's TraceCollector and Result.
	expandNS, solveNS, certifyNS int64
	visited, iterations, sweeps  int
	allocs                       uint64
	faults                       int64 // page faults of the rungBackend execution (store only)
}

// span is one record of the span file: name, start, duration and the span
// that caused it; spans of one request share a trace number.
type span struct {
	Trace   int            `json:"trace"`
	Span    int            `json:"span"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// recorder is a minimal http.ResponseWriter for driving handlers directly.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) reset() {
	r.hdr, r.status = http.Header{}, http.StatusOK
	r.body.Reset()
}

// stack is one independent instance of the serving stack over its own
// backend, so that every rung sees each request for the first time and the
// caches of all rungs evolve identically.
type stack struct {
	g     graph.Graph
	store *diskgraph.Store
	live  *livegraph.LiveGraph
	srv   *server.Server
	pool  *qserve.Pool
	close []func()
}

func (s *stack) Close() {
	for i := len(s.close) - 1; i >= 0; i-- {
		s.close[i]()
	}
}

// newBackend opens the workload's backend over base: the store file, a fresh
// live snapshot chain, or the MemGraph itself.
func newBackend(sp *spec, base *graph.MemGraph, storePath string) (*stack, error) {
	s := &stack{g: base}
	switch sp.backend {
	case backendStore:
		st, err := diskgraph.Open(storePath, int64(sp.pageCacheMiB)<<20)
		if err != nil {
			return nil, err
		}
		s.g, s.store = st, st
		s.close = append(s.close, func() { st.Close() })
	case backendLive:
		s.live = livegraph.New(base)
		s.g = s.live
	}
	return s, nil
}

// withPool adds a bare serving pool (no diagnostics) to the stack.
func (s *stack) withPool() *stack {
	s.pool = qserve.New(s.g, qserve.Config{})
	s.close = append(s.close, s.pool.Close)
	return s
}

// withServer adds an HTTP server to the stack. diagnostics selects flosd's
// shipped defaults (cmd/flosd/main.go: flight recorder, SLO tracker, span
// tracer, cache lenses, info-level access log to logw); without them every
// plane is off and the access log is disabled.
func (s *stack) withServer(diagnostics bool, logw io.Writer) *stack {
	cfg := server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))}
	if diagnostics {
		const slowLatency = 250 * time.Millisecond
		cfg.Logger = slog.New(slog.NewTextHandler(logw, &slog.HandlerOptions{Level: slog.LevelInfo}))
		cfg.Recorder = obs.NewFlightRecorder(obs.RecorderConfig{Size: 256, SlowLatency: slowLatency, SlowKeep: 64})
		cfg.SLO = obs.NewSLOTracker(obs.SLOConfig{AvailabilityObjective: 0.999, LatencyObjective: 0.99, LatencyThreshold: 100 * time.Millisecond})
		cfg.Tracer = trace.New(trace.Config{HeadRate: 1.0, Ring: 256, SlowLatency: slowLatency})
		lens := cachelens.Config{SampleRate: 64, TickEvery: 10 * time.Second}
		if s.store != nil {
			s.close = append(s.close, s.store.AttachLens(lens).Close)
		}
		lens.Capacity = 1024
		cfg.CacheLens = cachelens.New(lens)
		s.close = append(s.close, cfg.CacheLens.Close)
	}
	s.srv = server.New(s.g, cfg)
	s.pool = s.srv.Pool()
	s.close = append(s.close, s.srv.Close)
	return s
}

// ladder holds the six stacks of the traced pass.
type ladder struct {
	sp      *spec
	base    *graph.MemGraph
	primer  *stack // unmeasured Pool.Do before the rungs: warms CPU caches equally for all rungs, and reports hit or miss
	stacks  [numRungs]*stack
	handler [numRungs]http.Handler
	httpSrv *http.Server
	client  *client
	rec     recorder
	wsBack  *core.Workspace
	wsMem   *core.Workspace
	view    graph.Graph // the backend rung's own read view (a store Reader)
	tcBack  core.TraceCollector
	tcMem   core.TraceCollector
	logFile *os.File
}

func newLadder(sp *spec, base *graph.MemGraph, dir string) (*ladder, error) {
	l := &ladder{sp: sp, base: base, wsBack: core.NewWorkspace(), wsMem: core.NewWorkspace()}
	storePath := filepath.Join(dir, "graph.flos")
	var err error
	if l.logFile, err = os.Create(filepath.Join(dir, "ladder.access.log")); err != nil {
		return nil, err
	}
	mk := func() (*stack, error) { return newBackend(sp, base, storePath) }
	if l.primer, err = mk(); err != nil {
		return nil, err
	}
	l.primer.withPool()
	for r := rungHTTP; r <= rungBackend; r++ {
		if l.stacks[r], err = mk(); err != nil {
			l.Close()
			return nil, err
		}
	}
	l.stacks[rungHTTP].withServer(true, l.logFile)
	l.stacks[rungObs].withServer(true, l.logFile)
	l.stacks[rungHandler].withServer(false, nil)
	l.stacks[rungPool].withPool()
	for _, r := range []int{rungHTTP, rungObs, rungHandler} {
		l.handler[r] = l.stacks[r].srv.Handler()
	}
	l.view = l.stacks[rungBackend].g
	if st := l.stacks[rungBackend].store; st != nil {
		l.view = st.NewReader()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Close()
		return nil, err
	}
	l.httpSrv = &http.Server{Handler: l.handler[rungHTTP]}
	go l.httpSrv.Serve(ln) // returns when Close shuts the server down
	l.client = newClient("http://" + ln.Addr().String())
	return l, nil
}

func (l *ladder) Close() {
	if l.httpSrv != nil {
		l.client.close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = l.httpSrv.Shutdown(ctx) // waits for the Serve goroutine's connections to drain
		cancel()
	}
	if l.primer != nil {
		l.primer.Close()
	}
	for _, s := range l.stacks {
		if s != nil {
			s.Close()
		}
	}
	l.logFile.Close()
}

// serveDirect drives a handler in-process and returns the status.
func (l *ladder) serveDirect(h http.Handler, r request) (int, time.Duration, time.Time) {
	method, path, body := r.target()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, _ := http.NewRequest(method, "http://ladder"+path, rd)
	l.rec.reset()
	start := time.Now()
	h.ServeHTTP(&l.rec, req)
	return l.rec.status, time.Since(start), start
}

// step sends one request down the ladder, outermost rung first.
func (l *ladder) step(r request) (ladderSample, error) {
	s := ladderSample{req: r}
	ctx := context.Background()
	opt := optionsFor(r)

	// Primer.
	if r.Mutate {
		if _, err := l.primer.pool.Mutate([]livegraph.EdgeOp{r.Op}); err != nil {
			return s, fmt.Errorf("primer mutate: %w", err)
		}
	} else {
		resp, err := l.primer.pool.Do(ctx, qserve.Request{Query: r.Q, Opt: opt})
		if err != nil {
			return s, fmt.Errorf("primer: %w", err)
		}
		s.hit = resp.CacheHit
	}

	// rungHTTP.
	s.start[rungHTTP] = time.Now()
	rec := l.client.exec(r)
	s.rungs[rungHTTP] = rec.latency
	if rec.failure != "" {
		return s, fmt.Errorf("%s: %s", rungNames[rungHTTP], rec.failure)
	}
	if !r.Mutate && rec.ans.Cached != s.hit {
		return s, fmt.Errorf("%s: cached=%v but the primer saw cached=%v: rung caches diverged", rungNames[rungHTTP], rec.ans.Cached, s.hit)
	}

	// rungObs, rungHandler.
	for _, rg := range []int{rungObs, rungHandler} {
		var status int
		status, s.rungs[rg], s.start[rg] = l.serveDirect(l.handler[rg], r)
		if status != http.StatusOK {
			return s, fmt.Errorf("%s: status %d: %.120s", rungNames[rg], status, l.rec.body.Bytes())
		}
	}

	// rungPool.
	pool := l.stacks[rungPool].pool
	s.start[rungPool] = time.Now()
	if r.Mutate {
		_, err := pool.Mutate([]livegraph.EdgeOp{r.Op})
		s.rungs[rungPool] = time.Since(s.start[rungPool])
		if err != nil {
			return s, fmt.Errorf("%s: %w", rungNames[rungPool], err)
		}
		// rungBackend for a mutation is the snapshot publication alone.
		s.start[rungBackend] = time.Now()
		_, _, err = l.stacks[rungBackend].live.Apply([]livegraph.EdgeOp{r.Op})
		s.rungs[rungBackend] = time.Since(s.start[rungBackend])
		if err != nil {
			return s, fmt.Errorf("%s: %w", rungNames[rungBackend], err)
		}
		return s, nil
	}
	resp, err := pool.Do(ctx, qserve.Request{Query: r.Q, Opt: opt})
	s.rungs[rungPool] = time.Since(s.start[rungPool])
	if err != nil {
		return s, fmt.Errorf("%s: %w", rungNames[rungPool], err)
	}
	if resp.CacheHit != s.hit {
		return s, fmt.Errorf("%s: cached=%v but the primer saw cached=%v: rung caches diverged", rungNames[rungPool], resp.CacheHit, s.hit)
	}
	if s.hit {
		return s, nil // no engine work below the pool
	}

	// rungBackend: the engine on the workload's own backend. On a memory
	// backend this is rungMem, measured once.
	if l.sp.backend != backendMem {
		g := l.view
		var release func()
		if lg := l.stacks[rungBackend].live; lg != nil {
			// Pin like qserve does; the pin is part of what livegraph costs.
			s.start[rungBackend] = time.Now()
			snap := lg.Acquire()
			g, release = snap, snap.Release
		} else {
			s.start[rungBackend] = time.Now()
		}
		var before diskgraph.Stats
		if st := l.stacks[rungBackend].store; st != nil {
			before = st.CacheStats()
		}
		// Traced like the memory rung, so that the two differ by the backend
		// alone; only the memory rung's phase times are reported.
		l.tcBack.Iters = l.tcBack.Iters[:0]
		bopt := opt
		bopt.Tracer = &l.tcBack
		_, err := l.wsBack.TopK(ctx, g, r.Q, bopt)
		if release != nil {
			release()
		}
		s.rungs[rungBackend] = time.Since(s.start[rungBackend])
		if err != nil {
			return s, fmt.Errorf("%s: %w", rungNames[rungBackend], err)
		}
		if st := l.stacks[rungBackend].store; st != nil {
			s.faults = st.CacheStats().Misses - before.Misses
		}
	}

	// rungMem.
	l.tcMem.Iters = l.tcMem.Iters[:0]
	mopt := opt
	mopt.Tracer = &l.tcMem
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.start[rungMem] = time.Now()
	res, err := l.wsMem.TopK(ctx, l.base, r.Q, mopt)
	s.rungs[rungMem] = time.Since(s.start[rungMem])
	runtime.ReadMemStats(&m1)
	if err != nil {
		return s, fmt.Errorf("%s: %w", rungNames[rungMem], err)
	}
	s.allocs = m1.Mallocs - m0.Mallocs
	s.visited, s.iterations, s.sweeps = res.Visited, res.Iterations, res.Sweeps
	for _, it := range l.tcMem.Iters {
		s.expandNS += it.ExpandNS
		s.solveNS += it.SolveNS
		s.certifyNS += it.CertifyNS
	}
	if l.sp.backend == backendMem {
		s.start[rungBackend], s.rungs[rungBackend] = s.start[rungMem], s.rungs[rungMem]
	}
	return s, nil
}

// warm sends r through the stateful stacks only, unmeasured.
func (l *ladder) warm(r request) error {
	ctx := context.Background()
	pools := []*qserve.Pool{l.primer.pool}
	for rg := rungHTTP; rg <= rungPool; rg++ {
		pools = append(pools, l.stacks[rg].pool)
	}
	for _, p := range pools {
		var err error
		if r.Mutate {
			_, err = p.Mutate([]livegraph.EdgeOp{r.Op})
		} else {
			_, err = p.Do(ctx, qserve.Request{Query: r.Q, Opt: optionsFor(r)})
		}
		if err != nil {
			return fmt.Errorf("ladder warm-up: %w", err)
		}
	}
	if r.Mutate {
		if _, _, err := l.stacks[rungBackend].live.Apply([]livegraph.EdgeOp{r.Op}); err != nil {
			return fmt.Errorf("ladder warm-up: %w", err)
		}
	}
	return nil
}

// pinNS measures one Acquire+Release pair on the backend rung's live graph.
func (l *ladder) pinNS() float64 {
	lg := l.stacks[rungBackend].live
	if lg == nil {
		return 0
	}
	const n = 4096
	start := time.Now()
	for i := 0; i < n; i++ {
		lg.Acquire().Release()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// ladderWarmOps is the fixed warm-up of the traced pass on static workloads:
// enough to fill the page caches and warm the workspaces, and the same on
// every run so the measured requests (and their page faults) are too.
const ladderWarmOps = 8

// run replays one client's request list down the ladder: unmeasured until
// both warmOps requests and warmFor have passed, then measured until budget
// is spent.
func (l *ladder) run(list []request, warmOps int, warmFor, budget time.Duration) ([]ladderSample, error) {
	i := 0
	for start := time.Now(); i < len(list) && (i < warmOps || time.Since(start) < warmFor); i++ {
		if err := l.warm(list[i]); err != nil {
			return nil, err
		}
	}
	var samples []ladderSample
	for deadline := time.Now().Add(budget); i < len(list) && time.Now().Before(deadline); i++ {
		s, err := l.step(list[i])
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// spansOf renders the samples as span records: one root per request (the
// HTTP round trip), one child per rung, and the engine phases under the
// memory rung (durations real, placement end to end from the rung's start,
// like qserve's synthesized solver spans).
func spansOf(workload string, samples []ladderSample) []span {
	if len(samples) == 0 {
		return nil
	}
	epoch := samples[0].start[rungHTTP]
	var out []span
	for t, s := range samples {
		attrs := map[string]any{"workload": workload, "cache_hit": s.hit}
		if s.req.Mutate {
			attrs["op"] = "mutate"
		} else {
			attrs["op"], attrs["measure"], attrs["q"] = "read", measureParam(s.req.Measure), s.req.Q
		}
		id := 0
		add := func(parent int, name string, start time.Time, dur time.Duration, a map[string]any) int {
			id++
			out = append(out, span{Trace: t, Span: id, Parent: parent, Name: name, StartUS: toUS(start.Sub(epoch)), DurUS: toUS(dur), Attrs: a})
			return id
		}
		root := add(0, "request", s.start[rungHTTP], s.rungs[rungHTTP], attrs)
		for r := 0; r < numRungs; r++ {
			if s.rungs[r] == 0 {
				continue
			}
			rid := add(root, rungNames[r], s.start[r], s.rungs[r], nil)
			if r == rungMem {
				t0 := s.start[r]
				for _, ph := range []struct {
					name string
					ns   int64
				}{{"core.expand", s.expandNS}, {"kernel.solve", s.solveNS}, {"core.certify", s.certifyNS}} {
					add(rid, ph.name, t0, time.Duration(ph.ns), map[string]any{"aggregate": true, "iterations": s.iterations})
					t0 = t0.Add(time.Duration(ph.ns))
				}
			}
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
