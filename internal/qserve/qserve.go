// Package qserve is the concurrent query-serving subsystem: it owns query
// execution end to end, between the HTTP layer (internal/server) and the
// search engine (internal/core).
//
// A Pool is a counting semaphore of Workers slots over a shared graph: a
// query runs on its caller's goroutine while it holds a slot. Admission
// sheds load (Do returns ErrOverloaded immediately when every slot is busy
// and QueueDepth callers already wait, so callers can answer 429 instead of
// stacking up goroutines), every query runs under a context with an
// optional pool-wide deadline, and completed answers populate an LRU result
// cache keyed by (graph epoch, query node, measure, params, k). On a live
// graph (internal/livegraph) Mutate publishes an edge batch as a new epoch
// and invalidates the cache surgically: only entries whose read footprint
// the batch touched are evicted.
//
// Concurrency over the graph backend rides on the graph.Viewer capability:
// backends that can mint independent read views (the immutable MemGraph
// returns itself; the disk store returns per-slot Readers sharing its
// node table and pinned rows) get one view per slot and queries proceed fully
// in parallel. Any other Graph implementation is assumed
// non-concurrent-safe and gets one slot (admission, caching and shedding
// still apply).
//
// Each slot owns one core engine workspace, so steady-state queries reuse
// the engine's slices and indexes instead of rebuilding them per request.
package qserve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
	"flos/internal/obs"
	"flos/internal/obs/cachelens"
	"flos/internal/obs/trace"
)

// Errors returned by Do without running the query.
var (
	// ErrOverloaded reports that the admission queue was full; the caller
	// should shed the request (HTTP 429) and retry later.
	ErrOverloaded = errors.New("qserve: admission queue full")
	// ErrClosed reports that the pool has been shut down.
	ErrClosed = errors.New("qserve: pool closed")
	// ErrNotLive reports a Mutate call on a pool whose graph backend is not
	// a livegraph.LiveGraph.
	ErrNotLive = errors.New("qserve: pool is not serving a live graph")
)

// Config tunes a Pool. The zero value selects sensible defaults.
type Config struct {
	// Workers is the number of queries that run at once; 0 selects
	// GOMAXPROCS. A backend without graph.Viewer runs one at a time.
	Workers int
	// QueueDepth bounds the callers waiting for a slot; 0 selects
	// 4×Workers. Requests beyond Workers running + QueueDepth waiting are
	// shed.
	QueueDepth int
	// CacheEntries bounds the result cache, in entries of up to 16 result
	// rows (a larger answer counts as several); 0 selects
	// DefaultCacheEntries, negative disables caching.
	CacheEntries int
	// Timeout is the per-query wall-clock budget covering queue wait and
	// execution; 0 means no pool-imposed deadline.
	Timeout time.Duration
	// Recorder, when non-nil, receives one FlightRecord per query outcome —
	// executed (with a down-sampled convergence trajectory), cache hit, and
	// shed — and promotes outliers into its slow-query log.
	Recorder *obs.FlightRecorder
	// SLO, when non-nil, receives every query outcome for burn-rate
	// accounting: successes and hits as good events, deadline/failure/shed
	// as errors. Client cancellations are excluded — they say nothing about
	// the server's objectives.
	SLO *obs.SLOTracker
	// CacheLens, when non-nil, observes every result-cache lookup for the
	// cache analytics plane (miss-ratio curve, working-set windows).
	// Ignored when caching is disabled. Size it with
	// Capacity = CacheEntries so the curve's 1x point is the deployed bound.
	CacheLens *cachelens.Lens
}

// DefaultCacheEntries is the result-cache bound a zero Config.CacheEntries
// selects.
const DefaultCacheEntries = 1024

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	return c
}

// Request names one query.
type Request struct {
	// ID is the request identifier threaded through the flight recorder
	// (the join key between a latency exemplar, the slow-query log and the
	// access log). When empty and a recorder is configured, the pool assigns
	// one at admission.
	ID string
	// Query is the query node.
	Query graph.NodeID
	// Opt configures the search. A request with an iteration tracer
	// (Opt.Tracer) bypasses the result cache in both directions: the caller
	// wants the trajectory of a real execution, and per-query tracer state
	// must not be shared through cached responses. The serving mode
	// (Opt.Mode/Opt.Epsilon) participates in the cache key, with one
	// asymmetry: an exact entry may answer an ε or anytime request for the
	// same query, never the reverse. Under ModeAnytime a deadline (the
	// pool's Timeout or the caller's context) downgrades the answer to an
	// uncertified partial instead of killing the query with an error.
	Opt core.Options
	// Unified selects UnifiedTopK (both ranking families in one search)
	// instead of single-measure TopK.
	Unified bool
}

// Response is a completed query.
type Response struct {
	// TopK is set on every answer: for a unified request it is the
	// PHP-family answer, &Unified.Result, so its counters, certification and
	// footprint are those of the one shared search.
	TopK *core.Result
	// Unified is also set for unified requests; it adds the RWR ranking.
	Unified *core.UnifiedResult
	// CacheHit reports that the answer came from the result cache.
	CacheHit bool
	// Epoch is the graph epoch the answer is valid for. On a live pool it is
	// the epoch of the snapshot the query was pinned to at admission; replay
	// tooling compares it against the current epoch to report staleness.
	Epoch uint64
}

// Pool executes queries on a bounded set of slots.
type Pool struct {
	cfg Config
	// slots is the semaphore: a query runs only while it holds one.
	slots chan *slot
	// waiting counts the callers blocked for a slot; admission sheds past
	// cfg.QueueDepth of them.
	waiting atomic.Int64
	done    chan struct{}
	close   sync.Once

	cache *resultCache
	epoch atomic.Uint64

	// live is non-nil when the graph backend is a livegraph.LiveGraph. Each
	// admitted query then pins the current snapshot (j.snap), runs entirely
	// against it, and caches under the snapshot's epoch; Mutate publishes new
	// snapshots and invalidates surgically. On live pools p.epoch merely
	// mirrors the latest published epoch for Metrics — cache keys come from
	// the pinned snapshot, never from this mirror, so an admission racing a
	// publish stays consistent.
	live *livegraph.LiveGraph
	// mutateMu serializes Mutate's apply→invalidate sequence so the cache
	// walk of batch N completes before batch N+1 starts retiring epoch N.
	mutateMu sync.Mutex

	met metrics
	rec *obs.FlightRecorder
	slo *obs.SLOTracker
}

// slot is what one running query owns: a graph view, a warm engine
// workspace (reset per query, never shared) and, when a recorder is set, a
// trace sampler (run resets it per query).
type slot struct {
	g       graph.Graph
	ws      *core.Workspace
	sampler *obs.TraceSampler
}

type job struct {
	ctx    context.Context
	cancel context.CancelFunc
	req    Request
	key    cacheKey
	cached bool // key is valid and the answer should be cached

	// Live-mode state: the snapshot pinned at admission (the whole query
	// runs against it) and its epoch.
	snap  *livegraph.Snapshot
	epoch uint64

	// Span-tracing state, resolved once at prepare: the request's active
	// trace (nil when untraced — every use below is nil-safe), the span the
	// pool's spans parent under, and its hex trace ID (the flight-record
	// join key).
	trace   *trace.Active
	parent  trace.SpanID
	traceID string
}

// discard releases the job's resources: the deadline context (if any) and
// the pinned snapshot. Safe to call more than once.
func (j *job) discard() {
	if j.cancel != nil {
		j.cancel()
	}
	if j.snap != nil {
		j.snap.Release()
		j.snap = nil
	}
}

// New builds a Pool serving queries against g. Call Close to shut it.
func New(g graph.Graph, cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:  cfg,
		done: make(chan struct{}),
		rec:  cfg.Recorder,
		slo:  cfg.SLO,
	}
	if cfg.CacheEntries > 0 {
		p.cache = newResultCache(cfg.CacheEntries, cfg.CacheLens)
	}
	if lg, ok := g.(*livegraph.LiveGraph); ok {
		p.live = lg
		p.epoch.Store(lg.Epoch())
	}

	v, concurrent := g.(graph.Viewer)
	n := 1
	if concurrent {
		n = cfg.Workers
	}
	p.slots = make(chan *slot, n)
	for range n {
		s := &slot{g: g, ws: core.NewWorkspace()}
		if concurrent {
			s.g = v.NewView()
		}
		if p.rec != nil {
			s.sampler = obs.NewTraceSampler(obs.TracePoints)
		}
		p.slots <- s
	}
	return p
}

// Close shuts the pool: waiting callers and later Do calls get ErrClosed,
// and Close returns once every running query has answered its caller.
func (p *Pool) Close() {
	p.close.Do(func() {
		close(p.done)
		for range cap(p.slots) {
			<-p.slots
		}
	})
}

// Epoch returns the current graph epoch the result cache is keyed by.
func (p *Pool) Epoch() uint64 { return p.epoch.Load() }

// Mutate applies a batch of edge mutations to the live graph, publishing one
// new snapshot, and surgically invalidates the result cache: an entry is
// evicted only if the batch touched a node in its recorded read footprint
// (or, for RWR-guarded entries, raised a touched node's degree above the
// certified w(S̄) ceiling); every other entry moves to the new epoch in place
// and keeps serving hits.
//
// Returns the new epoch. The batch is atomic: on error nothing is published
// and the cache is untouched. Returns ErrNotLive on non-live pools.
func (p *Pool) Mutate(ops []livegraph.EdgeOp) (uint64, error) {
	return p.MutateCtx(context.Background(), ops)
}

// MutateCtx is Mutate under a caller context: when the context carries an
// active trace, the snapshot publication ("livegraph.apply") and the
// surgical-invalidation walk ("qserve.cache.invalidate", with its
// evicted/retained verdict) become spans of the mutating request.
func (p *Pool) MutateCtx(ctx context.Context, ops []livegraph.EdgeOp) (uint64, error) {
	if p.live == nil {
		return 0, ErrNotLive
	}
	a, parent := trace.FromContext(ctx)
	p.mutateMu.Lock()
	defer p.mutateMu.Unlock()
	oldEpoch := p.epoch.Load()
	apply := a.StartSpan(parent, "livegraph.apply", trace.Int("ops", int64(len(ops))))
	snap, touched, err := p.live.Apply(ops)
	if err != nil {
		apply.SetError(err.Error())
		apply.End()
		return 0, err
	}
	newEpoch := snap.Epoch()
	apply.SetAttrs(trace.Int("touched", int64(len(touched))), trace.Int("epoch", int64(newEpoch)))
	apply.End()
	if newEpoch == oldEpoch { // empty batch: nothing published
		return newEpoch, nil
	}
	if p.cache != nil {
		inval := a.StartSpan(parent, "qserve.cache.invalidate")
		var maxTouchedDeg float64
		for _, v := range touched {
			if d := snap.Degree(v); d > maxTouchedDeg {
				maxTouchedDeg = d
			}
		}
		surgical, retained := p.cache.invalidate(oldEpoch, newEpoch, touched, maxTouchedDeg)
		p.met.invalSurgical.Add(surgical)
		p.met.retained.Add(retained)
		p.met.lastBatchSurgical.Store(surgical)
		p.met.lastBatchRetained.Store(retained)
		inval.SetAttrs(trace.Int("surgical", surgical), trace.Int("retained", retained))
		inval.End()
	}
	p.epoch.Store(newEpoch)
	return newEpoch, nil
}

// Do executes one query on the caller's goroutine, waiting for a slot. It
// returns ErrOverloaded when every slot is busy and the wait is full,
// ErrClosed after Close, and passes through core's typed errors
// (core.ErrCanceled / core.ErrDeadline wrapped in *core.Interrupted) when
// ctx — or the pool's Timeout — fires first. A failed storage read is an
// error wrapping graph.ErrStorage, counted as failed; a search that panics
// (a bug) panics here, in the caller, and its slot goes back to the pool.
func (p *Pool) Do(ctx context.Context, req Request) (*Response, error) {
	select {
	case <-p.done:
		return nil, ErrClosed
	default:
	}

	start := time.Now()
	j, hit := p.prepare(ctx, req, start)
	if hit != nil {
		return hit, nil
	}
	defer j.discard()

	// The admission-wait span covers the whole time the request spent
	// waiting for a slot rather than computing.
	wait := j.trace.StartSpan(j.parent, "qserve.queue.wait")
	s, err := p.acquire()
	if err == ErrOverloaded {
		wait.SetAttrs(trace.Str("outcome", "shed"), trace.Int("queue_cap", int64(p.cfg.QueueDepth)))
		j.trace.Promote("shed")
		p.finish(j, finished{status: "shed", start: start, elapsed: time.Since(start)})
	}
	wait.End()
	if err != nil {
		return nil, err
	}

	ran := false // stays false when the search panics
	defer func() {
		// A search that panicked may have left the workspace mid-update, so
		// the slot starts over with an empty one. Any other keeps what a
		// typical search needs (core.Workspace.Trim).
		if ran {
			s.ws = s.ws.Trim()
		} else {
			s.ws = core.NewWorkspace()
		}
		p.slots <- s
	}()
	resp, err := p.run(s, j)
	ran = true
	return resp, err
}

// acquire takes a free slot, or waits for one when fewer than QueueDepth
// callers already wait. A returned slot goes straight to the longest
// waiter (a Go channel serves blocked receivers in arrival order), so the
// non-blocking first try cannot overtake them.
func (p *Pool) acquire() (*slot, error) {
	select {
	case s := <-p.slots:
		return s, nil
	default:
	}
	if p.waiting.Add(1) > int64(p.cfg.QueueDepth) {
		p.waiting.Add(-1)
		return nil, ErrOverloaded
	}
	defer p.waiting.Add(-1)
	select {
	case s := <-p.slots:
		return s, nil
	case <-p.done:
		return nil, ErrClosed
	}
}

// prepare resolves one request into an admittable job: assigns a request ID,
// pins the current live snapshot (the query's whole view of the world), and
// consults the result cache under the pinned epoch. A non-nil Response means
// the cache answered and no job needs to run. On a live-pool cache miss the
// job requests footprint capture.
func (p *Pool) prepare(ctx context.Context, req Request, start time.Time) (*job, *Response) {
	if p.rec != nil && req.ID == "" {
		req.ID = obs.NewRequestID()
	}
	j := &job{ctx: ctx, req: req}
	j.trace, j.parent = trace.FromContext(ctx)
	j.traceID = j.trace.TraceIDString()
	if p.live != nil {
		pin := j.trace.StartSpan(j.parent, "livegraph.pin")
		j.snap = p.live.Acquire()
		j.epoch = j.snap.Epoch()
		pin.SetAttrs(trace.Int("epoch", int64(j.epoch)))
		pin.End()
	} else {
		j.epoch = p.epoch.Load()
	}
	if p.cache != nil && req.Opt.Tracer == nil {
		j.key = keyOf(j.epoch, req)
		j.cached = true
		lookup := j.trace.StartSpan(j.parent, "qserve.cache.lookup")
		if resp, ok := p.cache.get(j.key); ok {
			lookup.SetAttrs(trace.Bool("hit", true))
			lookup.End()
			j.discard()
			p.finish(j, finished{status: "hit", start: start, elapsed: time.Since(start)})
			hit := *resp
			hit.CacheHit = true
			return nil, &hit
		}
		if p.live != nil {
			// Capture the read footprint so the completed answer can be
			// invalidated surgically. Not part of the cache key, so warm
			// non-live paths are unaffected.
			j.req.Opt.CaptureFootprint = true
		}
		lookup.SetAttrs(trace.Bool("hit", false))
		lookup.End()
	}
	if p.cfg.Timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(ctx, p.cfg.Timeout)
	}
	return j, nil
}

// QueueDepth returns the number of admitted queries waiting for a slot.
func (p *Pool) QueueDepth() int { return int(p.waiting.Load()) }

// finished is one query's outcome as finish accounts it. Only executed
// queries carry a result; a hit or a shed carries just its status and
// timing.
type finished struct {
	status  string // ok, hit, shed, deadline, canceled or failed
	start   time.Time
	elapsed time.Duration
	// res is the answer, or an interrupted query's partial: the work
	// counters, and the in-flight top-k the flight record keeps. Nil when no
	// search ran or the search failed.
	res     *core.Result
	partial bool // an anytime answer its deadline left uncertified
	sampler *obs.TraceSampler
}

// work is f's result, or an empty one when no search ran.
func (f *finished) work() *core.Result {
	if f.res == nil {
		return &core.Result{}
	}
	return f.res
}

// finish is the one place a query outcome is accounted: the outcome
// counters, the executed-latency histograms and work totals, the SLO event
// and the flight record.
func (p *Pool) finish(j *job, f finished) {
	slot := metricsSlot(j.req)
	r := f.work()
	m := &p.met
	switch f.status {
	case "shed":
		m.shed.Add(1)
	case "hit":
		// Hits never enter the executed-latency histograms, so the
		// per-measure parity is histogram count + hitByMeasure.
		m.hit.Add(1)
		m.hitByMeasure[slot].Add(1)
	default:
		m.latByMeasure[slot].Observe(f.elapsed)
		m.iterations.Add(int64(r.Iterations))
		m.visited.Add(int64(r.Visited))
		m.sweeps.Add(int64(r.Sweeps))
		switch f.status {
		case "ok":
			m.ok.Add(1)
			if f.partial {
				m.anytimePartial.Add(1)
			}
		case "deadline":
			m.deadline.Add(1)
		case "canceled":
			m.canceled.Add(1)
		default:
			m.failed.Add(1)
		}
	}
	// Cancellation is client-initiated and says nothing about the server's
	// objectives; a shed is an error against availability.
	if p.slo != nil && f.status != "canceled" {
		p.slo.Record(f.elapsed, f.status == "ok" || f.status == "hit")
	}
	if p.rec != nil {
		rec := &obs.FlightRecord{
			ID:         j.req.ID,
			TraceID:    j.traceID,
			Start:      f.start,
			Measure:    measureLabels[slot],
			Query:      int64(j.req.Query),
			K:          j.req.Opt.K,
			Unified:    j.req.Unified,
			Outcome:    f.status,
			LatencyUS:  f.elapsed.Microseconds(),
			Iterations: r.Iterations,
			Visited:    r.Visited,
			Sweeps:     r.Sweeps,
			Exact:      r.Exact,
		}
		if f.status == "deadline" || f.status == "canceled" {
			// What the query had when the context fired (the PHP family for
			// a unified one).
			rec.PartialTopK = r.TopK
		}
		if f.status != "shed" { // a shed query ran against no epoch
			rec.Epoch = j.epoch
		}
		if f.sampler != nil {
			rec.Trace = f.sampler.Snapshot()
			rec.TraceTotal = f.sampler.Total()
		}
		p.rec.Record(rec)
	}
}

// multiTracer fans iteration records out to every attached core.Tracer —
// the caller's tracer, the flight recorder's sampler, and the span bridge's
// phase accumulator — so recording a query never hides its trajectory from
// the user who asked for it.
type multiTracer []core.Tracer

func (m multiTracer) ObserveIteration(it core.IterStats) {
	for _, t := range m {
		t.ObserveIteration(it)
	}
}

// phaseAccum is the core.Tracer bridge between the engine's per-iteration
// IterStats hook and the span model: it sums the per-phase wall times the
// engines already measure, and run() synthesizes one aggregate span per
// solver phase from the totals. The engines themselves are untouched — the
// hook observes the schedule, it never alters it.
type phaseAccum struct {
	iters                        int64
	expandNS, solveNS, certifyNS int64
}

func (a *phaseAccum) ObserveIteration(it core.IterStats) {
	a.iters++
	a.expandNS += it.ExpandNS
	a.solveNS += it.SolveNS
	a.certifyNS += it.CertifyNS
}

// faultObserved is the structural capability of graph views that can report
// page-fault stalls (diskgraph.Reader); declared here so qserve needs no
// diskgraph import.
type faultObserved interface {
	SetFaultObserver(func(time.Duration))
}

// run executes one admitted job on slot s and returns its answer.
func (p *Pool) run(s *slot, j *job) (*Response, error) {
	g := s.g
	if j.snap != nil {
		// Live pool: the whole query runs against the snapshot pinned at
		// admission, not whatever is current by the time a slot frees up.
		g = j.snap
	}
	start := time.Now()
	opt := j.req.Opt
	// Compose the iteration tracers after the cache decision (Do keys bypass
	// off the user-set tracer, not these) so caching semantics are unchanged
	// when recording or span tracing is on.
	var accum *phaseAccum
	tracers := make(multiTracer, 0, 3)
	if opt.Tracer != nil {
		tracers = append(tracers, opt.Tracer)
	}
	if s.sampler != nil {
		s.sampler.Reset()
		tracers = append(tracers, s.sampler)
	}
	exec := j.trace.StartSpan(j.parent, "qserve.execute",
		trace.Str("measure", measureLabels[metricsSlot(j.req)]),
		trace.Int("query", int64(j.req.Query)),
		trace.Int("k", int64(j.req.Opt.K)),
		trace.Bool("unified", j.req.Unified),
		trace.Int("epoch", int64(j.epoch)))
	var faults, faultNS int64
	if j.trace != nil {
		accum = &phaseAccum{}
		tracers = append(tracers, accum)
		if fo, ok := g.(faultObserved); ok {
			// Attribute cold-path disk stalls to this query's trace. The
			// slot owns this view exclusively, and the observer is cleared
			// before the slot is returned, even when the search panics.
			fo.SetFaultObserver(func(d time.Duration) {
				faults++
				faultNS += int64(d)
			})
			defer fo.SetFaultObserver(nil)
		}
	}
	switch len(tracers) {
	case 0:
	case 1:
		opt.Tracer = tracers[0]
	default:
		opt.Tracer = tracers
	}
	resp := &Response{Epoch: j.epoch}
	var err error
	if j.req.Unified {
		if resp.Unified, err = s.ws.Unified(j.ctx, g, j.req.Query, opt); err == nil {
			resp.TopK = &resp.Unified.Result
		}
	} else {
		resp.TopK, err = s.ws.TopK(j.ctx, g, j.req.Query, opt)
	}
	f := finished{status: "ok", start: start, elapsed: time.Since(start), res: resp.TopK, sampler: s.sampler}
	if err != nil {
		f.status = "failed"
		var in *core.Interrupted
		if errors.As(err, &in) {
			f.res = in.Partial
			f.status = "canceled"
			if errors.Is(err, core.ErrDeadline) {
				f.status = "deadline"
			}
		}
	} else if opt.Mode == core.ModeAnytime {
		f.partial = !resp.TopK.Certification.Certified || resp.Unified != nil && !resp.Unified.RWRCert.Certified
	}
	if j.trace != nil {
		// Close out the execute span: outcome, work counters, then the
		// synthesized per-phase children. The engines report per-phase wall
		// times through IterStats; the totals become contiguous aggregate
		// spans laid end to end from the execution start — real durations,
		// synthetic placement.
		r := f.work()
		exec.SetAttrs(trace.Str("outcome", f.status),
			trace.Int("iterations", int64(r.Iterations)),
			trace.Int("visited", int64(r.Visited)),
			trace.Int("sweeps", int64(r.Sweeps)))
		if f.status == "failed" {
			exec.SetError(err.Error())
		}
		if accum != nil && accum.iters > 0 {
			t0 := start
			for _, ph := range [...]struct {
				name string
				ns   int64
			}{
				{"solver.expand", accum.expandNS},
				{"solver.solve", accum.solveNS},
				{"solver.certify", accum.certifyNS},
			} {
				j.trace.AddSpan(exec.ID(), ph.name, t0, time.Duration(ph.ns),
					trace.Int("iterations", accum.iters), trace.Bool("aggregate", true))
				t0 = t0.Add(time.Duration(ph.ns))
			}
		}
		if faults > 0 {
			j.trace.AddSpan(exec.ID(), "disk.pagefault", start, time.Duration(faultNS),
				trace.Int("faults", faults), trace.Bool("aggregate", true))
		}
		exec.End()
		// Anything the slow-query log would promote, the trace store keeps
		// too — the two planes must agree on what "the slow query" is.
		if p.rec != nil && p.rec.IsSlow(f.elapsed) {
			j.trace.Promote("slow-query")
		}
	}
	p.finish(j, f)
	if err != nil {
		return nil, err
	}
	if p.cache != nil && j.cached && !f.partial {
		// Results are immutable once returned; the cache shares them. An
		// uncertified anytime partial is never cached: its content depends
		// on when the deadline happened to fire, so replaying it to later
		// callers (who may have looser deadlines) would serve interrupted
		// junk as if it were the query's answer.
		if p.live != nil {
			fp, guard, guarded := footprintOf(j.req, resp.TopK)
			p.cache.putLive(j.key, resp, fp, guard, guarded)
		} else {
			p.cache.put(j.key, resp)
		}
	}
	return resp, nil
}

// footprintOf assembles the cache-entry invalidation state from a completed
// response: the sorted set union of visited and degree-probed nodes (a node
// probed and then visited appears once) and the RWR guard rule inputs. A
// unified query always certifies an RWR ranking, so it is guarded; a
// single-measure query is guarded only under measure.RWR.
func footprintOf(req Request, res *core.Result) (fp []graph.NodeID, guard float64, guarded bool) {
	fp = make([]graph.NodeID, 0, len(res.VisitedNodes)+len(res.ProbedNodes))
	fp = append(append(fp, res.VisitedNodes...), res.ProbedNodes...)
	slices.Sort(fp)
	return slices.Compact(fp), res.GuardDegree, req.Unified || req.Opt.Measure == measure.RWR
}

// Metrics returns a counters snapshot; see the Metrics type.
func (p *Pool) Metrics() Metrics {
	m := p.met.snapshot()
	m.Workers = cap(p.slots)
	m.QueueCap = p.cfg.QueueDepth
	m.QueueDepth = p.QueueDepth()
	m.Epoch = p.epoch.Load()
	if p.cache != nil {
		m.CacheHits, m.CacheMisses, m.CacheEvictions, m.CacheEntries = p.cache.counters()
		m.CacheCapacity = p.cache.max
	}
	if p.live != nil {
		ls := p.live.Stats()
		m.Epoch = ls.Epoch
		m.SnapshotsAlive = ls.SnapshotsAlive
		m.SnapshotsTotal = ls.SnapshotsTotal
		m.RowsCoWed = ls.RowsCoWed
		m.OpsApplied = ls.OpsApplied
	}
	return m
}

// Live reports whether the pool serves a livegraph.LiveGraph (Mutate works).
func (p *Pool) Live() bool { return p.live != nil }
