package qserve

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
	"flos/internal/obs"
)

func buildStore(t *testing.T, g *graph.MemGraph, pageSize int, cacheBytes int64) *diskgraph.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.flos")
	if err := diskgraph.Create(path, g, pageSize); err != nil {
		t.Fatal(err)
	}
	s, err := diskgraph.Open(path, cacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestConcurrentDiskStressMatchesSerial fires 64 concurrent mixed-measure
// queries at one disk-resident store through a multi-worker pool and
// verifies every answer is byte-identical to the single-threaded reference
// on the in-memory graph. Run under -race, this is the subsystem's central
// exactness-under-concurrency guarantee: the shared pinned rows, the
// per-worker readers, and the deterministic engine must agree with the
// serial path bit for bit.
func TestConcurrentDiskStressMatchesSerial(t *testing.T) {
	g, err := gen.RMAT(5000, 25000, gen.DefaultRMAT(), 3)
	if err != nil {
		t.Fatal(err)
	}
	store := buildStore(t, g, 4096, 64<<10) // 64 KiB budget: heavy eviction
	lc := graph.LargestComponentNodes(g)
	kinds := []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.THT, measure.RWR}

	const n = 64
	reqs := make([]Request, n)
	want := make([]*core.Result, n)
	for i := range reqs {
		reqs[i] = Request{
			Query: lc[(i*997)%len(lc)],
			Opt:   core.DefaultOptions(kinds[i%len(kinds)], 10),
		}
		res, err := core.TopK(g, reqs[i].Query, reqs[i].Opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	pool := New(store, Config{Workers: 8, QueueDepth: n, CacheEntries: -1})
	defer pool.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = pool.Do(context.Background(), reqs[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i].TopK.TopK, want[i].TopK) {
			t.Errorf("query %d (%v q=%d): concurrent %v != serial %v",
				i, reqs[i].Opt.Measure, reqs[i].Query, got[i].TopK.TopK, want[i].TopK)
		}
		if got[i].TopK.Visited != want[i].Visited {
			t.Errorf("query %d: visited %d != serial %d", i, got[i].TopK.Visited, want[i].Visited)
		}
	}
	st := store.CacheStats()
	t.Logf("rows after stress: %d pinned hits, %d file reads", st.Hits, st.Misses)
}

// TestCancellationPrompt proves TopKCtx abandons work as soon as the
// context is dead: with an already-expired deadline the query returns in
// far less than the time a full search would take, with the typed sentinel
// and partial counters.
func TestCancellationPrompt(t *testing.T) {
	g, err := gen.Community(20000, 80000, gen.DefaultCommunityParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err = core.TopKCtx(ctx, g, 1, core.DefaultOptions(measure.RWR, 50))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	var in *core.Interrupted
	if !errors.As(err, &in) {
		t.Fatalf("err %T does not carry *core.Interrupted", err)
	}
	if in.Partial.Visited < 1 {
		t.Errorf("interrupted with no work recorded: %+v", in)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("expired-context query took %s, want prompt return", elapsed)
	}

	// Same contract through the pool, via its Timeout knob.
	pool := New(g, Config{Workers: 1, Timeout: time.Nanosecond})
	defer pool.Close()
	if _, err := pool.Do(context.Background(), Request{Query: 1, Opt: core.DefaultOptions(measure.PHP, 10)}); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("pool err = %v, want ErrDeadline", err)
	}
	if m := pool.Metrics(); m.Interrupted != 1 {
		t.Errorf("Interrupted = %d, want 1", m.Interrupted)
	}

	// Plain cancellation maps to ErrCanceled.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := core.TopKCtx(cctx, g, 1, core.DefaultOptions(measure.THT, 10)); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := core.UnifiedTopKCtx(cctx, g, 1, core.DefaultOptions(measure.PHP, 10)); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("unified err = %v, want ErrCanceled", err)
	}
}

// TestResultCacheEpochInvalidation checks the cache contract: identical
// requests hit, answers are identical to the cold run, and a mutation
// batch touching the query node leaves no hit across the epoch.
func TestResultCacheEpochInvalidation(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(livegraph.New(g), Config{Workers: 2, CacheEntries: 16})
	defer pool.Close()
	req := Request{Query: 100, Opt: core.DefaultOptions(measure.RWR, 5)}

	cold, err := pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	warm, err := pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if !reflect.DeepEqual(warm.TopK.TopK, cold.TopK.TopK) {
		t.Fatalf("cached answer differs: %v vs %v", warm.TopK.TopK, cold.TopK.TopK)
	}

	// A different k is a different key.
	other := req
	other.Opt.K = 7
	if resp, err := pool.Do(context.Background(), other); err != nil || resp.CacheHit {
		t.Fatalf("k=7 variant: err=%v hit=%v, want cold miss", err, resp.CacheHit)
	}

	if _, err := pool.Mutate([]livegraph.EdgeOp{{Op: livegraph.OpSet, U: req.Query, V: 1500, W: 2}}); err != nil {
		t.Fatal(err)
	}
	fresh, err := pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit {
		t.Fatal("cache hit across a mutation of the query node")
	}
	m := pool.Metrics()
	if m.CacheHits != 1 || m.Epoch != 2 {
		t.Errorf("metrics = %+v, want 1 hit at epoch 2", m)
	}

	// Unified requests cache under their own key.
	ureq := Request{Query: 100, Opt: core.DefaultOptions(measure.PHP, 5), Unified: true}
	if resp, err := pool.Do(context.Background(), ureq); err != nil || resp.CacheHit {
		t.Fatalf("unified cold: err=%v hit=%v", err, resp.CacheHit)
	}
	if resp, err := pool.Do(context.Background(), ureq); err != nil || !resp.CacheHit {
		t.Fatalf("unified warm: err=%v hit=%v, want hit", err, resp.CacheHit)
	}
}

// gateGraph blocks every Neighbors call until the gate opens, signalling
// entry — a deterministic way to hold a worker busy.
type gateGraph struct {
	base    *graph.MemGraph
	gate    chan struct{}
	entered chan struct{}
}

func (g *gateGraph) NumNodes() int                        { return g.base.NumNodes() }
func (g *gateGraph) NumEdges() int64                      { return g.base.NumEdges() }
func (g *gateGraph) Degree(v graph.NodeID) float64        { return g.base.Degree(v) }
func (g *gateGraph) TopDegrees(k int) []graph.DegreeEntry { return g.base.TopDegrees(k) }
func (g *gateGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.base.Neighbors(v)
}

// TestAdmissionShedding fills the one-worker pool and its one-slot queue,
// then verifies the next request is shed immediately with ErrOverloaded and
// counted, while the admitted requests still complete once unblocked.
func TestAdmissionShedding(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	mg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gg := &gateGraph{base: mg, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	pool := New(gg, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	defer pool.Close()

	req := Request{Query: 0, Opt: core.DefaultOptions(measure.PHP, 1)}
	results := make(chan error, 2)
	go func() {
		_, err := pool.Do(context.Background(), req)
		results <- err
	}()
	<-gg.entered // worker is now blocked inside the first query

	go func() {
		_, err := pool.Do(context.Background(), req)
		results <- err
	}()
	// The queued job occupies the single slot; poll until it is visible.
	deadline := time.Now().Add(2 * time.Second)
	for pool.QueueDepth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := pool.Do(context.Background(), req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request: err = %v, want ErrOverloaded", err)
	}
	if m := pool.Metrics(); m.Shed != 1 {
		t.Errorf("Shed = %d, want 1", m.Shed)
	}

	close(gg.gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// TestClosedPool verifies Do fails fast after Close.
func TestClosedPool(t *testing.T) {
	g, err := gen.Community(500, 1500, gen.DefaultCommunityParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{Workers: 1})
	pool.Close()
	if _, err := pool.Do(context.Background(), Request{Query: 0, Opt: core.DefaultOptions(measure.PHP, 3)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestCloseLetsRunningQueriesAnswer holds one query inside its search and
// one waiting for the pool's only slot, then closes the pool: the waiting
// caller gets ErrClosed at once, Close waits, and the running query answers
// its caller and is accounted ok exactly once.
func TestCloseLetsRunningQueriesAnswer(t *testing.T) {
	g := diagGraph(t)
	gg := &gateGraph{base: g, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 8, SlowLatency: -1})
	pool := New(gg, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1, Recorder: rec})

	type result struct {
		resp *Response
		err  error
	}
	req := Request{Query: 100, Opt: core.DefaultOptions(measure.PHP, 5)}
	do := func(out chan<- result) {
		resp, err := pool.Do(context.Background(), req)
		out <- result{resp, err}
	}
	held, waiting := make(chan result, 1), make(chan result, 1)
	go do(held)
	<-gg.entered
	go do(waiting)
	for pool.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() { pool.Close(); close(closed) }()
	if r := <-waiting; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("waiting query: err = %v, want ErrClosed", r.err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a query was running")
	default:
	}
	close(gg.gate)
	r := <-held
	if r.err != nil {
		t.Fatalf("running query: err = %v, want its answer", r.err)
	}
	<-closed
	want, err := core.TopK(g, req.Query, req.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.resp.TopK, want) {
		t.Errorf("running query answered %+v, want %+v", r.resp.TopK, want)
	}
	if m := pool.Metrics(); m.OK != 1 || m.Served != 1 {
		t.Errorf("OK = %d, Served = %d, want 1 and 1", m.OK, m.Served)
	}
	if last := rec.Last(8); len(last) != 1 || last[0].Outcome != "ok" {
		t.Errorf("flight records = %+v, want one ok", last)
	}
	if _, err := pool.Do(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: err = %v, want ErrClosed", err)
	}
}

// panicGraph panics on the n-th Neighbors read after it is armed, once: a
// search that dies mid-expansion, as on a failed disk row read. It is not a
// graph.Viewer, so a pool over it has one slot.
type panicGraph struct {
	graph.Graph
	left int // reads until the panic; 0 is disarmed
}

func (g *panicGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	if g.left > 0 {
		if g.left--; g.left == 0 {
			panic("panicGraph: row read failed")
		}
	}
	return g.Graph.Neighbors(v)
}

// TestPanickingSearchCostsOneQuery: a search that panics panics in Do's
// caller, and the pool's one slot comes back with an empty workspace, not
// the one the search may have left mid-update, which answers the next
// queries exactly like a fresh search.
func TestPanickingSearchCostsOneQuery(t *testing.T) {
	g := diagGraph(t)
	pg := &panicGraph{Graph: g}
	pool := New(pg, Config{Workers: 1, CacheEntries: -1})
	defer pool.Close()

	x := Request{Query: 100, Opt: core.DefaultOptions(measure.PHP, 5)}
	pg.left = 10
	before := slotWorkspaces(pool)[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Do(x) did not panic")
			}
		}()
		_, _ = pool.Do(context.Background(), x)
	}()
	if ws := slotWorkspaces(pool)[0]; ws == before || indexArray(t, ws) != 0 {
		t.Fatal("the slot kept the workspace of the search that panicked")
	}
	for _, q := range []graph.NodeID{200, 100} {
		req := Request{Query: q, Opt: x.Opt}
		resp, err := pool.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("Do(%d) after the panic: %v", q, err)
		}
		want, err := core.TopK(g, q, req.Opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.TopK, want) {
			t.Errorf("Do(%d) after the panic = %+v, want %+v", q, resp.TopK, want)
		}
	}
}

// TestMetricsHistogramsAndOutcomes exercises the histogram-based snapshot:
// latency percentiles are populated, per-measure histograms carry the right
// labels, outcome counters split interrupted queries by cause, and the work
// totals accumulate engine counters.
func TestMetricsHistogramsAndOutcomes(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{Workers: 2, CacheEntries: -1})
	defer pool.Close()

	for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
		for i := 0; i < 3; i++ {
			if _, err := pool.Do(context.Background(), Request{Query: graph.NodeID(100 + i), Opt: core.DefaultOptions(kind, 5)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := pool.Do(context.Background(), Request{Query: 50, Opt: core.DefaultOptions(measure.PHP, 5), Unified: true}); err != nil {
		t.Fatal(err)
	}

	m := pool.Metrics()
	if m.Served != 7 {
		t.Fatalf("served = %d, want 7", m.Served)
	}
	if n := executedCount(m); n != 7 {
		t.Errorf("histograms count %d executed queries, want 7", n)
	}
	for _, label := range []string{"php", "rwr", "unified"} {
		if s := m.LatencyByMeasure[label]; s.Count == 0 || s.QuantileUS(0.50) <= 0 || s.QuantileUS(0.99) < s.QuantileUS(0.50) {
			t.Errorf("measure label %q: %d observations, p50 %d, p99 %d", label, s.Count, s.QuantileUS(0.50), s.QuantileUS(0.99))
		}
	}
	if _, ok := m.LatencyByMeasure["tht"]; ok {
		t.Errorf("unused measure label present: %v", m.LatencyByMeasure)
	}
	if m.VisitedTotal <= 0 || m.IterationsTotal <= 0 || m.SweepsTotal <= 0 {
		t.Errorf("work totals not accumulated: %+v", m)
	}

	// A pool-deadline query lands in the deadline outcome bucket.
	dpool := New(g, Config{Workers: 1, Timeout: time.Nanosecond, CacheEntries: -1})
	defer dpool.Close()
	if _, err := dpool.Do(context.Background(), Request{Query: 1, Opt: core.DefaultOptions(measure.PHP, 5)}); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	dm := dpool.Metrics()
	if dm.Deadline != 1 || dm.Interrupted != 1 || dm.Canceled != 0 {
		t.Errorf("outcomes = deadline %d canceled %d interrupted %d, want 1/0/1",
			dm.Deadline, dm.Canceled, dm.Interrupted)
	}
}

// TestTracerBypassesCache: requests carrying an iteration tracer must not
// be answered from (or populate) the result cache — the caller wants a real
// execution's trajectory.
func TestTracerBypassesCache(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{Workers: 1, CacheEntries: 64})
	defer pool.Close()

	req := Request{Query: 100, Opt: core.DefaultOptions(measure.RWR, 5)}
	if _, err := pool.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	traced := req
	tc := &core.TraceCollector{}
	traced.Opt.Tracer = tc
	resp, err := pool.Do(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("traced request served from cache")
	}
	if len(tc.Iters) == 0 {
		t.Fatal("tracer saw no iterations")
	}
	if !tc.Iters[len(tc.Iters)-1].Certified {
		t.Fatalf("final trace entry not certified: %+v", tc.Iters[len(tc.Iters)-1])
	}
}
