package qserve

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
)

func liveTestGraph(t *testing.T, n int, m int64, seed uint64) *graph.MemGraph {
	t.Helper()
	g, err := gen.Community(n, m, gen.CommunityParamsForDensity(2*float64(m)/float64(n)), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// liveMutation builds a batch of weight upserts between pseudo-random node
// pairs — always valid (OpSet), deterministic per step.
func liveMutation(n int, step, batch int) []livegraph.EdgeOp {
	ops := make([]livegraph.EdgeOp, 0, batch)
	state := uint64(step)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for len(ops) < batch {
		u := graph.NodeID(next() % uint64(n))
		v := graph.NodeID(next() % uint64(n))
		if u == v {
			continue
		}
		ops = append(ops, livegraph.EdgeOp{
			Op: livegraph.OpSet, U: u, V: v, W: 1 + float64(next()%4),
		})
	}
	return ops
}

// snapTracker pins every snapshot a test's writer publishes, so responses can
// later be audited against a frozen materialization of their exact epoch.
type snapTracker struct {
	mu sync.Mutex
	m  map[uint64]*livegraph.Snapshot
}

func newSnapTracker(lg *livegraph.LiveGraph) *snapTracker {
	st := &snapTracker{m: make(map[uint64]*livegraph.Snapshot)}
	s := lg.Acquire()
	st.m[s.Epoch()] = s
	return st
}

func (st *snapTracker) add(s *livegraph.Snapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[s.Epoch()]; ok {
		s.Release()
		return
	}
	st.m[s.Epoch()] = s
}

func (st *snapTracker) get(t *testing.T, epoch uint64) *livegraph.Snapshot {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[epoch]
	if !ok {
		t.Fatalf("no pinned snapshot for epoch %d", epoch)
	}
	return s
}

func (st *snapTracker) releaseAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.m {
		s.Release()
	}
	st.m = map[uint64]*livegraph.Snapshot{}
}

// materialized returns (building once per epoch) the frozen MemGraph copy of
// the tracked snapshot — the serial-reference world for that epoch.
type refWorlds struct {
	st *snapTracker
	mu sync.Mutex
	m  map[uint64]*graph.MemGraph
}

func (r *refWorlds) get(t *testing.T, epoch uint64) *graph.MemGraph {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[uint64]*graph.MemGraph)
	}
	if g, ok := r.m[epoch]; ok {
		return g
	}
	g, err := r.st.get(t, epoch).Materialize()
	if err != nil {
		t.Fatalf("materialize epoch %d: %v", epoch, err)
	}
	r.m[epoch] = g
	return g
}

// TestLiveGoldenEquivalence is the golden concurrency test: queries running
// against a live pool while a writer publishes new snapshots must return
// results byte-identical to a serial TopK run on a frozen (materialized)
// copy of the exact snapshot each query pinned — for all five measures, both
// cold (first execution) and warm (reused engine workspace). The cache is
// disabled so every response is a real execution.
func TestLiveGoldenEquivalence(t *testing.T) {
	const n = 2000
	base := liveTestGraph(t, n, 6000, 3)
	lg := livegraph.New(base)
	st := newSnapTracker(lg)
	defer st.releaseAll()
	refs := &refWorlds{st: st}

	pool := New(lg, Config{Workers: 2, QueueDepth: 64, CacheEntries: -1})
	defer pool.Close()

	kinds := []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.THT, measure.RWR}
	lget := graph.LargestComponentNodes(base)
	ctx := context.Background()

	clients, iters, steps := 4, 40, 400
	if testing.Short() {
		clients, iters, steps = 2, 15, 150
	}

	// Writer: publish a stream of snapshots concurrently with the queries.
	// Single writer, so Acquire right after Apply pins exactly the snapshot
	// the batch published.
	stop := make(chan struct{})
	var wgW sync.WaitGroup
	wgW.Add(1)
	go func() {
		defer wgW.Done()
		for step := 0; step < steps; step++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := lg.Apply(liveMutation(n, step, 6)); err != nil {
				t.Error(err)
				return
			}
			st.add(lg.Acquire())
			time.Sleep(100 * time.Microsecond)
		}
	}()

	type got struct {
		req  Request
		resp *Response
	}
	var (
		mu      sync.Mutex
		results []got
		wgR     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wgR.Add(1)
		go func(c int) {
			defer wgR.Done()
			for i := 0; i < iters; i++ {
				req := Request{
					Query: lget[(c*911+i*7919)%len(lget)],
					Opt:   core.DefaultOptions(kinds[(c+i)%len(kinds)], 10),
				}
				// cold, then warm on the same workspace-holding pool
				for pass := 0; pass < 2; pass++ {
					resp, err := pool.Do(ctx, req)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					results = append(results, got{req, resp})
					mu.Unlock()
				}
			}
		}(c)
	}
	wgR.Wait()
	close(stop)
	wgW.Wait()
	if t.Failed() {
		return
	}

	for _, r := range results {
		world := refs.get(t, r.resp.Epoch)
		want, err := core.TopK(world, r.req.Query, r.req.Opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.resp.TopK.TopK, want.TopK) {
			t.Fatalf("epoch %d query %d measure %v: pooled result diverges from serial run on frozen snapshot\n got %v\nwant %v",
				r.resp.Epoch, r.req.Query, r.req.Opt.Measure, r.resp.TopK.TopK, want.TopK)
		}
		if !r.resp.TopK.Exact {
			t.Fatalf("epoch %d query %d: result not certified exact", r.resp.Epoch, r.req.Query)
		}
	}
}

// TestMutateUnderTrafficStress hammers a cache-enabled live pool with
// concurrent clients while a writer mutates continuously, then audits a
// sample of responses (cache hits included) with a full global-iteration
// certification against the frozen copy of each response's epoch. This is
// the -race CI stress: it exercises pinning, surgical invalidation,
// and epoch re-stamping all racing each other.
func TestMutateUnderTrafficStress(t *testing.T) {
	const n = 1200
	base := liveTestGraph(t, n, 3600, 9)
	lg := livegraph.New(base)
	st := newSnapTracker(lg)
	defer st.releaseAll()
	refs := &refWorlds{st: st}

	pool := New(lg, Config{Workers: 4, QueueDepth: 64, CacheEntries: 512})
	defer pool.Close()

	kinds := []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.THT, measure.RWR}
	lget := graph.LargestComponentNodes(base)
	ctx := context.Background()

	iters := 60
	clients := 4
	if testing.Short() {
		iters = 20
	}

	stop := make(chan struct{})
	var wgW sync.WaitGroup
	wgW.Add(1)
	go func() {
		defer wgW.Done()
		for step := 0; step < 500; step++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pool.Mutate(liveMutation(n, step, 4)); err != nil {
				t.Error(err)
				return
			}
			st.add(lg.Acquire())
			time.Sleep(100 * time.Microsecond)
		}
	}()

	type got struct {
		req  Request
		resp *Response
	}
	var (
		mu      sync.Mutex
		sampled []got
		wgR     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wgR.Add(1)
		go func(c int) {
			defer wgR.Done()
			for i := 0; i < iters; i++ {
				req := Request{
					// A small hot set so cache hits, invalidations and
					// recomputes all actually happen under race.
					Query: lget[(c+i)%16],
					Opt:   core.DefaultOptions(kinds[i%len(kinds)], 8),
				}
				resp, err := pool.Do(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Unified == nil && resp.TopK == nil {
					t.Error("response carries no result")
					return
				}
				if i%6 == c%6 {
					mu.Lock()
					sampled = append(sampled, got{req, resp})
					mu.Unlock()
				}
			}
		}(c)
	}
	wgR.Wait()
	close(stop)
	wgW.Wait()
	if t.Failed() {
		return
	}

	if len(sampled) == 0 {
		t.Fatal("no responses sampled")
	}
	for _, r := range sampled {
		world := refs.get(t, r.resp.Epoch)
		// Certify audits the top-k against a full global-iteration solve on
		// the frozen world: ground truth, not a replayed search.
		if err := core.Certify(world, r.req.Query, r.resp.TopK, r.req.Opt.Measure, r.req.Opt.Params, 1e-7); err != nil {
			t.Fatalf("epoch %d query %d measure %v: %v", r.resp.Epoch, r.req.Query, r.req.Opt.Measure, err)
		}
	}

	m := pool.Metrics()
	if m.SnapshotsTotal < 2 {
		t.Fatalf("writer published no snapshots (total %d)", m.SnapshotsTotal)
	}
	if m.InvalidationsSurgical+m.CacheRetained == 0 {
		t.Fatal("no surgical invalidation activity despite mutations under traffic")
	}
	t.Logf("snapshots=%d surgical=%d retained=%d hits=%d misses=%d",
		m.SnapshotsTotal, m.InvalidationsSurgical, m.CacheRetained, m.CacheHits, m.CacheMisses)
}

// TestSurgicalInvalidationDisjointRetains checks the core cache contract: a
// mutation batch disjoint from every cached footprint retains the entries
// (moved to the new epoch in place, still serving hits), while a batch touching a
// footprint evicts exactly those entries and the recompute is a cold search
// on the new snapshot.
func TestSurgicalInvalidationDisjointRetains(t *testing.T) {
	// Community component carries the queries; an isolated ring receives
	// mutations, provably outside any query footprint.
	const n, block = 1500, 16
	comm := liveTestGraph(t, n, 4500, 5)
	b := graph.NewBuilder(n + block)
	for u := 0; u < comm.NumNodes(); u++ {
		nbrs, wts := comm.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if graph.NodeID(u) < v {
				if err := b.AddEdge(graph.NodeID(u), v, wts[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < block; i++ {
		if err := b.AddEdge(graph.NodeID(n+i), graph.NodeID(n+(i+1)%block), 1); err != nil {
			t.Fatal(err)
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	lg := livegraph.New(base)
	pool := New(lg, Config{Workers: 2, QueueDepth: 16, CacheEntries: 128})
	defer pool.Close()
	ctx := context.Background()

	lget := graph.LargestComponentNodes(base)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Query: lget[i*31%len(lget)], Opt: core.DefaultOptions(measure.PHP, 5)}
	}
	for _, r := range reqs {
		if _, err := pool.Do(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	// Disjoint mutation: isolated block only -> all entries retained.
	newEpoch, err := pool.Mutate([]livegraph.EdgeOp{
		{Op: livegraph.OpSet, U: graph.NodeID(n), V: graph.NodeID(n + 1), W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := pool.Metrics()
	if m.InvalidationsSurgical != 0 || m.CacheRetained != int64(len(reqs)) {
		t.Fatalf("disjoint batch: surgical=%d retained=%d, want 0/%d",
			m.InvalidationsSurgical, m.CacheRetained, len(reqs))
	}
	resp, err := pool.Do(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatalf("retained entry did not serve a hit after disjoint mutation (epoch %d)", newEpoch)
	}

	// Touching mutation: upsert an edge incident to a query node — its
	// footprint certainly contains the query itself.
	before := pool.Metrics()
	if _, err := pool.Mutate([]livegraph.EdgeOp{
		{Op: livegraph.OpSet, U: reqs[0].Query, V: lget[500%len(lget)], W: 2},
	}); err != nil {
		t.Fatal(err)
	}
	after := pool.Metrics()
	if after.InvalidationsSurgical <= before.InvalidationsSurgical {
		t.Fatalf("touching batch evicted nothing (surgical %d -> %d)",
			before.InvalidationsSurgical, after.InvalidationsSurgical)
	}

	// The recompute of the evicted entry carries nothing over from the stale
	// one: it is byte-identical to a cold search on the same snapshot.
	resp, err = pool.Do(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("evicted entry served a cache hit")
	}
	snap := lg.Acquire()
	defer snap.Release()
	coldOpt := reqs[0].Opt
	coldOpt.CaptureFootprint = true // what a live pool asks of every miss
	cold, err := core.TopK(snap, reqs[0].Query, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.TopK, cold) {
		t.Fatalf("recompute differs from a cold search on epoch %d:\n%+v\n%+v", resp.Epoch, resp.TopK, cold)
	}
	// And it is exact on the new world.
	world, err := snap.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Certify(world, reqs[0].Query, resp.TopK, measure.PHP, reqs[0].Opt.Params, 1e-7); err != nil {
		t.Fatalf("recomputed answer wrong: %v", err)
	}
}

// TestFootprintIsASet: a cached answer's footprint is strictly increasing —
// a node that was degree-probed and later visited is stored once — and
// covers every visited and probed node, and core's ProbedNodes is a sorted
// set, for the single-measure and the unified search, under both guard
// rules.
func TestFootprintIsASet(t *testing.T) {
	g := liveTestGraph(t, 2000, 6000, 4)
	lget := graph.LargestComponentNodes(g)
	for _, unified := range []bool{false, true} {
		for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
			for i := 0; i < 6; i++ {
				req := Request{Query: lget[i*97%len(lget)], Opt: core.DefaultOptions(kind, 10), Unified: unified}
				req.Opt.CaptureFootprint = true
				resp := &Response{}
				var visited, probed []graph.NodeID
				if unified {
					res, err := core.UnifiedTopK(g, req.Query, req.Opt)
					if err != nil {
						t.Fatal(err)
					}
					resp.Unified, visited, probed = res, res.VisitedNodes, res.ProbedNodes
				} else {
					res, err := core.TopK(g, req.Query, req.Opt)
					if err != nil {
						t.Fatal(err)
					}
					resp.TopK, visited, probed = res, res.VisitedNodes, res.ProbedNodes
				}
				fp, _, _ := footprintOf(req, resp)
				for what, s := range map[string][]graph.NodeID{"footprint": fp, "ProbedNodes": probed} {
					for j := 1; j < len(s); j++ {
						if s[j] <= s[j-1] {
							t.Fatalf("unified=%v %v q=%d: %s not strictly increasing at %d: %d then %d",
								unified, kind, req.Query, what, j, s[j-1], s[j])
						}
					}
				}
				for _, v := range append(append([]graph.NodeID(nil), visited...), probed...) {
					if _, ok := slices.BinarySearch(fp, v); !ok {
						t.Fatalf("unified=%v %v q=%d: node %d missing from the footprint", unified, kind, req.Query, v)
					}
				}
			}
		}
	}
}

// TestMutateErrors covers the non-live guard and atomic batch failure.
func TestMutateErrors(t *testing.T) {
	base := liveTestGraph(t, 200, 600, 1)
	pool := New(base, Config{Workers: 1})
	defer pool.Close()
	if _, err := pool.Mutate(nil); !errors.Is(err, ErrNotLive) {
		t.Fatalf("Mutate on non-live pool: %v, want ErrNotLive", err)
	}

	lg := livegraph.New(liveTestGraph(t, 200, 600, 2))
	lp := New(lg, Config{Workers: 1})
	defer lp.Close()
	epoch0 := lp.Epoch()
	// Find a guaranteed-missing edge so OpRemove must fail.
	missing := graph.NodeID(-1)
	nbrs, _ := lg.Neighbors(150)
	for v := graph.NodeID(151); int(v) < lg.NumNodes(); v++ {
		adjacent := false
		for _, u := range nbrs {
			if u == v {
				adjacent = true
				break
			}
		}
		if !adjacent {
			missing = v
			break
		}
	}
	if missing < 0 {
		t.Fatal("node 150 adjacent to every later node")
	}
	// Second op invalid (removing a missing edge): whole batch must abort,
	// leaking nothing — including the valid first op.
	wBefore := weightOf(t, lg, 0, 1)
	if _, err := lp.Mutate([]livegraph.EdgeOp{
		{Op: livegraph.OpSet, U: 0, V: 1, W: wBefore + 5},
		{Op: livegraph.OpRemove, U: 150, V: missing},
	}); err == nil {
		t.Fatal("expected batch error")
	}
	if got := lp.Epoch(); got != epoch0 {
		t.Fatalf("failed batch advanced epoch %d -> %d", epoch0, got)
	}
	if w := weightOf(t, lg, 0, 1); w != wBefore {
		t.Fatalf("aborted batch leaked: weight(0,1) %v -> %v", wBefore, w)
	}
}

func weightOf(t *testing.T, g graph.Graph, u, v graph.NodeID) float64 {
	t.Helper()
	nbrs, wts := g.Neighbors(u)
	for i, x := range nbrs {
		if x == v {
			return wts[i]
		}
	}
	return 0
}

// TestLiveResponseEpoch checks that responses carry the pinned snapshot's
// epoch and that it matches the pool's published epoch in a quiescent pool.
func TestLiveResponseEpoch(t *testing.T) {
	lg := livegraph.New(liveTestGraph(t, 400, 1200, 6))
	pool := New(lg, Config{Workers: 1, CacheEntries: 64})
	defer pool.Close()
	ctx := context.Background()
	resp, err := pool.Do(ctx, Request{Query: 2, Opt: core.DefaultOptions(measure.RWR, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != lg.Epoch() {
		t.Fatalf("response epoch %d, graph epoch %d", resp.Epoch, lg.Epoch())
	}
	if _, err := pool.Mutate(liveMutation(400, 1, 2)); err != nil {
		t.Fatal(err)
	}
	resp2, err := pool.Do(ctx, Request{Query: 3, Opt: core.DefaultOptions(measure.RWR, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Epoch != resp.Epoch+1 {
		t.Fatalf("epoch did not advance: %d -> %d", resp.Epoch, resp2.Epoch)
	}
}

// TestShellDegreeChangeInvalidates: the shell bound reads the degree of
// every shell node (an unvisited neighbor of the visited set), so a batch
// that changes nothing but one such degree — an edge from a shell node to a
// node far from the visited set — must evict the cached PHP and RWR entries
// that read it, and their recomputations must equal fresh searches on the
// new snapshot.
func TestShellDegreeChangeInvalidates(t *testing.T) {
	base := liveTestGraph(t, 3000, 9000, 6)
	lg := livegraph.New(base)
	pool := New(lg, Config{Workers: 1, QueueDepth: 4, CacheEntries: 64})
	defer pool.Close()
	ctx := context.Background()

	lget := graph.LargestComponentNodes(base)
	q := lget[len(lget)/2]
	reqs := []Request{
		{Query: q, Opt: core.DefaultOptions(measure.PHP, 10)},
		{Query: q, Opt: core.DefaultOptions(measure.RWR, 10)},
	}
	// What each search read: its visited set and the shell nodes whose
	// degree it probed.
	visited := map[graph.NodeID]bool{}
	var probed [][]graph.NodeID
	var guard float64
	for _, r := range reqs {
		resp, err := pool.Do(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range resp.TopK.VisitedNodes {
			visited[v] = true
		}
		probed = append(probed, resp.TopK.ProbedNodes)
		guard = max(guard, resp.TopK.GuardDegree)
	}
	// A shell node both searches probed and neither visited.
	shell := graph.NodeID(-1)
	for _, u := range probed[0] {
		if _, both := slices.BinarySearch(probed[1], u); both && !visited[u] {
			shell = u
			break
		}
	}
	if shell < 0 {
		t.Fatal("no shell node common to both searches")
	}
	// A node far from S: neither it nor any neighbor was read, and it is
	// not already joined to the shell node.
	read := func(v graph.NodeID) bool {
		if visited[v] {
			return true
		}
		for _, p := range probed {
			if _, ok := slices.BinarySearch(p, v); ok {
				return true
			}
		}
		return false
	}
	far := graph.NodeID(-1)
	for _, v := range lget {
		nbrs, _ := base.Neighbors(v)
		if read(v) || slices.Contains(nbrs, shell) || slices.ContainsFunc(nbrs, func(u graph.NodeID) bool { return visited[u] }) {
			continue
		}
		if base.Degree(v)+0.5 <= guard && base.Degree(shell)+0.5 <= guard {
			far = v
			break
		}
	}
	if far < 0 {
		t.Fatal("no far node whose new degree stays under the RWR guard")
	}

	before := pool.Metrics()
	if _, err := pool.Mutate([]livegraph.EdgeOp{{Op: livegraph.OpAdd, U: shell, V: far, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	after := pool.Metrics()
	if got := after.InvalidationsSurgical - before.InvalidationsSurgical; got != int64(len(reqs)) {
		t.Fatalf("shell-degree batch evicted %d entries, want %d", got, len(reqs))
	}
	snap := lg.Acquire()
	defer snap.Release()
	for _, r := range reqs {
		resp, err := pool.Do(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatalf("%v: evicted entry served a cache hit", r.Opt.Measure)
		}
		fresh := r.Opt
		fresh.CaptureFootprint = true // what a live pool asks of every miss
		want, err := core.TopK(snap, r.Query, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.TopK, want) {
			t.Fatalf("%v: recompute differs from a fresh search:\n%+v\n%+v", r.Opt.Measure, resp.TopK, want)
		}
	}
}
