package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// testOptions returns options tightened for oracle comparisons: tolerance
// well below the score gaps random weighted graphs produce.
func testOptions(kind measure.Kind, k int) Options {
	opt := DefaultOptions(kind, k)
	opt.Params.Tau = 1e-10
	opt.Params.MaxIter = 200000
	return opt
}

// randomConnected builds a connected random weighted graph.
func randomConnected(t testing.TB, n, extra int, seed int64) *graph.MemGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(int32(v), int32(rng.Intn(v)), 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// exactScores computes the oracle score vector for a measure with a tight
// tolerance.
func exactScores(t testing.TB, g graph.Graph, q graph.NodeID, kind measure.Kind, p measure.Params) []float64 {
	t.Helper()
	p.Tau = 1e-12
	p.MaxIter = 500000
	r, _, err := measure.Exact(g, q, kind, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFLoSMatchesOracleAllMeasures is the central exactness test: on random
// weighted graphs, FLoS must return the same top-k set as global iteration,
// for every measure and several k.
func TestFLoSMatchesOracleAllMeasures(t *testing.T) {
	for _, kind := range measure.Kinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				g := randomConnected(t, 80, 150, seed)
				q := graph.NodeID(int(seed*13) % 80)
				for _, k := range []int{1, 3, 10} {
					opt := testOptions(kind, k)
					res, err := TopK(g, q, opt)
					if err != nil {
						t.Fatalf("seed %d k %d: %v", seed, k, err)
					}
					if !res.Exact {
						t.Fatalf("seed %d k %d: result not exact", seed, k)
					}
					if len(res.TopK) != k {
						t.Fatalf("seed %d k %d: got %d nodes", seed, k, len(res.TopK))
					}
					oracle := exactScores(t, g, q, kind, opt.Params)
					got := measure.Nodes(res.TopK)
					if !measure.SameSetModuloTies(got, oracle, q, k, kind.HigherIsCloser(), 1e-7) {
						want := measure.Nodes(measure.TopK(oracle, q, k, kind.HigherIsCloser()))
						t.Errorf("seed %d k %d: FLoS %v != oracle %v", seed, k, got, want)
					}
					if res.Visited > g.NumNodes() {
						t.Errorf("visited %d > n", res.Visited)
					}
				}
			}
		})
	}
}

// TestFLoSLocality: on a large sparse graph, FLoS must answer a small-k
// query while visiting a small fraction of the nodes — the paper's central
// efficiency claim (Figure 9).
func TestFLoSLocality(t *testing.T) {
	g, err := gen.RMAT(20000, 80000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	lc := graph.LargestComponentNodes(g)
	q := lc[len(lc)/2]
	opt := DefaultOptions(measure.PHP, 10)
	res, err := TopK(g, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("not exact")
	}
	ratio := float64(res.Visited) / float64(g.NumNodes())
	if ratio > 0.25 {
		t.Errorf("visited ratio %.3f — not local", ratio)
	}
	t.Logf("visited %d/%d (%.4f) in %d iterations, %d sweeps",
		res.Visited, g.NumNodes(), ratio, res.Iterations, res.Sweeps)
}

// TestPaperExampleTable3 replays the paper's running example: Figure 1(a),
// PHP with c = 0.8, q = 1, k = 2. The expansion must visit the nodes of
// Table 3 per iteration, and nodes {2,3} must be certified as the top-2. The
// paper certifies after iteration 4 with node 8 unvisited; the shell bound
// lowers r_d to 0.32 by iteration 3 (the boundary rule reads 0.63 there),
// which certifies one iteration earlier with nodes 6, 7 and 8 unvisited.
func TestPaperExampleTable3(t *testing.T) {
	g := gen.PaperExample()
	sc := &SnapshotCollector{}
	opt := Options{
		K:       2,
		Measure: measure.PHP,
		Params:  measure.Params{C: 0.8, L: 10, Tau: 1e-10, MaxIter: 100000},
		Tracer:  sc,
	}
	res, err := TopK(g, 0, opt)
	events := sc.Events
	if err != nil {
		t.Fatal(err)
	}
	// Table 3, 0-indexed: iterations visit {2,3}→{1,2}, {4}→{3}, {5}→{4}.
	want := [][]graph.NodeID{{1, 2}, {3}, {4}}
	if res.Iterations != len(want) {
		t.Fatalf("terminated after %d iterations, want %d (events: %d)",
			res.Iterations, len(want), len(events))
	}
	for i, ev := range events {
		if !reflect.DeepEqual(ev.NewNodes, want[i]) {
			t.Errorf("iteration %d visited %v, want %v", i+1, ev.NewNodes, want[i])
		}
	}
	got := measure.Nodes(res.TopK)
	if !measure.SameSet(got, []graph.NodeID{1, 2}) {
		t.Fatalf("top-2 = %v, want {1,2} (paper nodes 2,3)", got)
	}
	if res.Visited != 5 {
		t.Errorf("visited %d nodes, want 5 (nodes 6, 7 and 8 stay unvisited)", res.Visited)
	}
}

// starOfCliques builds a hub joined to `cliques` complete blocks of `size`
// nodes, with parallel edges (every block's first pair is joined twice) and
// 1e-9-weight edges (hub to each block's second member, and each block's
// last member to the next block's first). FromCSR keeps the parallel
// entries the Builder would merge.
func starOfCliques(t testing.TB, cliques, size int) *graph.MemGraph {
	t.Helper()
	n := 1 + cliques*size
	type half struct {
		v graph.NodeID
		w float64
	}
	adj := make([][]half, n)
	edge := func(u, v int, w float64) {
		adj[u] = append(adj[u], half{graph.NodeID(v), w})
		adj[v] = append(adj[v], half{graph.NodeID(u), w})
	}
	for c := 0; c < cliques; c++ {
		base := 1 + c*size
		edge(0, base, 1)
		edge(0, base+1, 1e-9)
		edge(base, base+1, 0.5)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edge(base+i, base+j, 1+float64((i+j)%3))
			}
		}
		if c+1 < cliques {
			edge(base+size-1, base+size, 1e-9)
		}
	}
	offsets := make([]int64, n+1)
	var targets []graph.NodeID
	var weights []float64
	for v := range adj {
		slices.SortStableFunc(adj[v], func(a, b half) int { return int(a.v - b.v) })
		for _, h := range adj[v] {
			targets = append(targets, h.v)
			weights = append(weights, h.w)
		}
		offsets[v+1] = int64(len(targets))
	}
	g, err := graph.FromCSR(offsets, targets, weights)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// boundGraph is one graph of the bound-premise tables: a large enough
// search that a step expands more than one node.
type boundGraph struct {
	name string
	g    *graph.MemGraph
	q    graph.NodeID
}

func boundGraphs(t testing.TB) []boundGraph {
	t.Helper()
	erdos, err := gen.Erdos(500, 2500, 7)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := gen.Community(2000, 6000, gen.CommunityParamsForDensity(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	stars := starOfCliques(t, 24, 9)
	return []boundGraph{
		{"erdos(500,2500)", erdos, graph.LargestComponentNodes(erdos)[0]},
		{"community(2000,6000)", comm, graph.LargestComponentNodes(comm)[0]},
		{"star-of-cliques", stars, 1 + 3*9 + 4},
	}
}

// batchCollector keeps every snapshot and the largest step taken.
type batchCollector struct {
	SnapshotCollector
	maxBatch int
}

func (c *batchCollector) ObserveIteration(st IterStats) { c.maxBatch = max(c.maxBatch, st.Batch) }

// TestBoundsMonotoneAndValid asserts, on every trace snapshot of PHP, RWR
// and unified searches (exact or ε, in memory or on a disk store), the
// premises the PHP engine's start values rest on: lb ≤ PHP ≤ ub for every
// visited node, Section 5.2's monotonicity of both bounds and of r_d, and
// r_d ≥ PHP of every unvisited node (Theorem 5 and the shell bound), which
// is what lets a newly visited node's upper bound start at r_d.
func TestBoundsMonotoneAndValid(t *testing.T) {
	for _, bg := range boundGraphs(t) {
		disk := diskVariant(t, bg.g)
		batched := false
		for _, search := range []string{"PHP", "RWR", "unified"} {
			kind := measure.PHP
			if search == "RWR" {
				kind = measure.RWR
			}
			// The engine's bounds are PHP at the kind's equivalent decay.
			p, err := measure.EquivalentPHPParams(kind, testOptions(kind, 10).Params)
			if err != nil {
				t.Fatal(err)
			}
			exact := exactScores(t, bg.g, bg.q, measure.PHP, p)
			for _, eps := range []float64{0, 1e-3} {
				for _, backend := range []string{"mem", "disk"} {
					var g graph.Graph = bg.g
					if backend == "disk" {
						g = disk
					}
					name := fmt.Sprintf("%s/%s/eps=%g/%s", bg.name, search, eps, backend)
					sc := &batchCollector{}
					opt := testOptions(kind, 10)
					opt.Tracer = sc
					if eps > 0 {
						opt.Mode, opt.Epsilon = ModeEpsilon, eps
					}
					if search == "unified" {
						_, err = UnifiedTopK(g, bg.q, opt)
					} else {
						_, err = TopK(g, bg.q, opt)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkBoundEvents(t, name, sc.Events, exact)
					batched = batched || sc.maxBatch > 1
				}
			}
		}
		if !batched {
			t.Fatalf("%s: no step expanded more than one node, so the table no longer covers batched steps", bg.name)
		}
	}
}

// TestVisitCapHolds: a node's upper bound never rises above the r_d it was
// visited under, on every snapshot of the golden PHP and RWR scenarios.
// Its own row can relax above that r_d when it borders nodes with larger
// bounds; on rand500, q = 499 a neighbor of q that sets R relaxes to R
// itself, one rounding step above it without the cap. The cap is one half
// of what keeps the certification gap from growing (DESIGN.md §5).
func TestVisitCapHolds(t *testing.T) {
	for _, gc := range goldenGraphs(t) {
		for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
			for _, q := range goldenQueries(gc.g.NumNodes()) {
				sc := &SnapshotCollector{}
				opt := goldenOptions(kind)
				opt.Tracer = sc
				if _, err := TopK(gc.g, q, opt); err != nil {
					t.Fatal(err)
				}
				visitedUnder := map[graph.NodeID]float64{}
				for _, ev := range sc.Events {
					// r_d is set before the expansion and holds through it.
					for _, v := range ev.NewNodes {
						visitedUnder[v] = ev.DummyValue
					}
					for i, v := range ev.Nodes {
						if rd, ok := visitedUnder[v]; ok && ev.Upper[i] > rd {
							t.Fatalf("%s/%v/q=%d iter %d: node %d ub %g above the r_d %g it was visited under",
								gc.name, kind, q, ev.Iteration, v, ev.Upper[i], rd)
						}
					}
				}
			}
		}
	}
}

func checkBoundEvents(t *testing.T, name string, events []TraceEvent, exact []float64) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: no trace events", name)
	}
	prevLB := map[graph.NodeID]float64{}
	prevUB := map[graph.NodeID]float64{}
	prevRD := 1.0
	visited := make([]bool, len(exact))
	for _, ev := range events {
		if ev.DummyValue > prevRD+1e-12 {
			t.Fatalf("%s iter %d: rd rose %g -> %g", name, ev.Iteration, prevRD, ev.DummyValue)
		}
		prevRD = ev.DummyValue
		for _, v := range ev.Nodes {
			visited[v] = true
		}
		for v, x := range exact {
			if !visited[v] && ev.DummyValue < x-1e-12 {
				t.Fatalf("%s iter %d: rd %g below PHP %g of unvisited node %d", name, ev.Iteration, ev.DummyValue, x, v)
			}
		}
		for i, v := range ev.Nodes {
			lb, ub := ev.Lower[i], ev.Upper[i]
			if lb > ub+1e-9 {
				t.Fatalf("%s iter %d node %d: lb %g > ub %g", name, ev.Iteration, v, lb, ub)
			}
			if lb > exact[v]+1e-7 {
				t.Fatalf("%s iter %d node %d: lb %g > exact %g", name, ev.Iteration, v, lb, exact[v])
			}
			if ub < exact[v]-1e-7 {
				t.Fatalf("%s iter %d node %d: ub %g < exact %g", name, ev.Iteration, v, ub, exact[v])
			}
			if p, ok := prevLB[v]; ok && lb < p-1e-9 {
				t.Fatalf("%s iter %d node %d: lb regressed %g -> %g", name, ev.Iteration, v, p, lb)
			}
			if p, ok := prevUB[v]; ok && ub > p+1e-9 {
				t.Fatalf("%s iter %d node %d: ub regressed %g -> %g", name, ev.Iteration, v, p, ub)
			}
			prevLB[v], prevUB[v] = lb, ub
		}
	}
}

// TestRWRExactOnHubGraph: the graph where RWR has a genuine local maximum
// (hub of leaves) — the case plain local search cannot handle and
// Section 5.6's machinery exists for.
func TestRWRExactOnHubGraph(t *testing.T) {
	b := graph.NewBuilder(13)
	add := func(u, v int32) {
		if err := b.AddUnitEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1)
	add(1, 2)
	for leaf := int32(3); leaf < 13; leaf++ {
		add(2, leaf)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(measure.RWR, 3)
	opt.Params.C = 0.1 // low restart keeps the hub a local max
	res, err := TopK(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exactScores(t, g, 0, measure.RWR, opt.Params)
	got := measure.Nodes(res.TopK)
	if !measure.SameSetModuloTies(got, oracle, 0, 3, true, 1e-9) {
		want := measure.Nodes(measure.TopK(oracle, 0, 3, true))
		t.Fatalf("RWR top-3 = %v, want %v", got, want)
	}
}

// TestTHTBeyondHorizon: on a long path with horizon L, all nodes past L hops
// tie at L. A path is adversarial for the appendix's deletion-based THT
// lower bound — boundary nodes' lower bounds sit near 1 + L/2, so only
// queries whose k-th upper bound is below that can stop early. k = 1
// (r_1 ≈ 2.6 < 4) must terminate locally with the right answer; k = 5
// (r_5 ≈ 6⁻, inseparable from the horizon crowd) must still be *correct*
// after exhausting the component.
func TestTHTBeyondHorizon(t *testing.T) {
	g := gen.Path(40)
	opt := testOptions(measure.THT, 1)
	opt.Params.L = 6
	res, err := TopK(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := measure.Nodes(res.TopK); !measure.SameSet(got, []graph.NodeID{1}) {
		t.Fatalf("THT top-1 on path = %v, want {1}", got)
	}
	if res.Visited >= 25 {
		t.Errorf("k=1 visited %d nodes — expected early termination", res.Visited)
	}

	opt = testOptions(measure.THT, 5)
	opt.Params.L = 6
	res, err = TopK(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exactScores(t, g, 0, measure.THT, opt.Params)
	if got := measure.Nodes(res.TopK); !measure.SameSetModuloTies(got, oracle, 0, 5, false, 1e-9) {
		t.Fatalf("THT top-5 on path = %v", got)
	}
}

// TestMaxVisitedCap: the safety valve returns a best-effort inexact result,
// and at any size one expansion overshoots the cap by at most its own
// neighborhood: the step that crosses it is budgeted to the room that is left.
func TestMaxVisitedCap(t *testing.T) {
	big, err := gen.Erdos(20000, 100000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.MemGraph
		k, cap int
	}{
		{"n=500", randomConnected(t, 500, 1000, 2), 20, 30},
		{"n=20000", big, 2000, 5000},
	} {
		maxNbrs := 0
		for v := 0; v < tc.g.NumNodes(); v++ {
			maxNbrs = max(maxNbrs, tc.g.NumNeighbors(graph.NodeID(v)))
		}
		for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
			opt := testOptions(kind, tc.k)
			opt.MaxVisited = tc.cap
			res, err := TopK(tc.g, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Exact {
				t.Errorf("%s/%v: capped result claims exactness", tc.name, kind)
			}
			if res.Visited < tc.cap || res.Visited >= tc.cap+maxNbrs {
				t.Errorf("%s/%v: visited %d, want [%d, %d)", tc.name, kind, res.Visited, tc.cap, tc.cap+maxNbrs)
			}
			if len(res.TopK) != tc.k {
				t.Errorf("%s/%v: got %d results", tc.name, kind, len(res.TopK))
			}
		}
	}
}

// TestSmallComponent: query in a component smaller than k+1 returns the
// whole component, exactly.
func TestSmallComponent(t *testing.T) {
	// Component {0,1,2} plus a separate clique.
	b := graph.NewBuilder(8)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {3, 7}} {
		if err := b.AddUnitEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []measure.Kind{measure.PHP, measure.THT, measure.RWR} {
		res, err := TopK(g, 0, testOptions(kind, 10))
		if err != nil {
			t.Fatal(err)
		}
		got := measure.Nodes(res.TopK)
		if !measure.SameSet(got, []graph.NodeID{1, 2}) {
			t.Errorf("%v: component query returned %v, want {1,2}", kind, got)
		}
		if !res.Exact {
			t.Errorf("%v: exhausted component not marked exact", kind)
		}
	}
}

// TestSingletonQuery: an isolated query node has no neighbors at all.
func TestSingletonQuery(t *testing.T) {
	g := graph.MustFromEdges(3, 1, 2) // node 0 isolated
	res, err := TopK(g, 0, testOptions(measure.PHP, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 0 {
		t.Fatalf("isolated query returned %v", res.TopK)
	}
}

func TestTopKInputValidation(t *testing.T) {
	g := gen.Path(4)
	if _, err := TopK(g, 99, testOptions(measure.PHP, 1)); err == nil {
		t.Error("out-of-range query accepted")
	}
	for _, c := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"K=0", func(o *Options) { o.K = 0 }},
		{"C=2", func(o *Options) { o.Params.C = 2 }},
		{"C=NaN", func(o *Options) { o.Params.C = math.NaN() }},
		{"Tau=NaN", func(o *Options) { o.Params.Tau = math.NaN() }},
		{"Tau=+Inf", func(o *Options) { o.Params.Tau = math.Inf(1) }},
		{"MaxVisited=-3", func(o *Options) { o.MaxVisited = -3 }},
		{"Epsilon=NaN", func(o *Options) { o.Mode, o.Epsilon = ModeEpsilon, math.NaN() }},
		{"Epsilon=+Inf", func(o *Options) { o.Mode, o.Epsilon = ModeEpsilon, math.Inf(1) }},
	} {
		bad := testOptions(measure.PHP, 1)
		c.mutate(&bad)
		if _, err := TopK(g, 0, bad); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", c.name, err)
		}
	}
}

// TestPropertyFLoSMatchesOracle: randomized cross-check over seeds and
// query nodes for PHP and RWR.
func TestPropertyFLoSMatchesOracle(t *testing.T) {
	f := func(seed int64, qRaw uint8) bool {
		n := 50
		g := randomConnected(t, n, 80, seed)
		q := graph.NodeID(int(qRaw) % n)
		for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
			opt := testOptions(kind, 5)
			res, err := TopK(g, q, opt)
			if err != nil || !res.Exact {
				return false
			}
			oracle := exactScores(t, g, q, kind, opt.Params)
			if !measure.SameSetModuloTies(measure.Nodes(res.TopK), oracle, q, 5, true, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestDHTScoresMatchExact: the DHT scores reported through the PHP engine's
// affine map approximate the direct DHT solver. FLoS certifies the SET
// exactly but reports scores as bound midpoints, so they carry the residual
// bound gap at termination — hence the loose tolerance.
func TestDHTScoresMatchExact(t *testing.T) {
	g := randomConnected(t, 50, 80, 8)
	q := graph.NodeID(3)
	opt := testOptions(measure.DHT, 5)
	res, err := TopK(g, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exactScores(t, g, q, measure.DHT, opt.Params)
	for _, rk := range res.TopK {
		if math.Abs(rk.Score-oracle[rk.Node]) > 0.05 {
			t.Errorf("node %d: FLoS DHT score %g, exact %g", rk.Node, rk.Score, oracle[rk.Node])
		}
	}
	// Scores must come back closest-first, i.e. non-decreasing for DHT.
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i].Score < res.TopK[i-1].Score-1e-9 {
			t.Errorf("DHT scores not ascending: %v", res.TopK)
		}
	}
}

// TestTHTTraceBoundsValid: THT trace bounds must bracket the exact truncated
// hitting times and respect the lower-is-closer direction.
func TestTHTTraceBoundsValid(t *testing.T) {
	g := randomConnected(t, 50, 70, 13)
	q := graph.NodeID(1)
	p := measure.DefaultParams()
	exact := exactScores(t, g, q, measure.THT, p)
	sc := &SnapshotCollector{}
	opt := testOptions(measure.THT, 5)
	opt.Tracer = sc
	if _, err := TopK(g, q, opt); err != nil {
		t.Fatal(err)
	}
	events := sc.Events
	for _, ev := range events {
		for i, v := range ev.Nodes {
			if ev.Lower[i] > exact[v]+1e-7 {
				t.Fatalf("iter %d node %d: THT lb %g > exact %g", ev.Iteration, v, ev.Lower[i], exact[v])
			}
			if ev.Upper[i] < exact[v]-1e-7 {
				t.Fatalf("iter %d node %d: THT ub %g < exact %g", ev.Iteration, v, ev.Upper[i], exact[v])
			}
		}
	}
}

// TestVisitedCountsExpansionOnly: Visited equals the number of distinct
// nodes pulled into S, and Iterations matches the trace length.
func TestVisitedCountsExpansionOnly(t *testing.T) {
	g := randomConnected(t, 60, 100, 17)
	sc := &SnapshotCollector{}
	opt := testOptions(measure.PHP, 4)
	opt.Tracer = sc
	res, err := TopK(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	events := sc.Events
	if res.Iterations != len(events) {
		t.Errorf("iterations %d != trace %d", res.Iterations, len(events))
	}
	distinct := map[graph.NodeID]bool{0: true}
	for _, ev := range events {
		for _, v := range ev.NewNodes {
			distinct[v] = true
		}
	}
	if res.Visited != len(distinct) {
		t.Errorf("visited %d != distinct %d", res.Visited, len(distinct))
	}
}
