package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// oracleGraphs is the fixed-seed slice of the property oracle: shapes at
// n = 500–2,000, where the frontier budget makes a step expand many nodes,
// which the n ≤ 80 random graphs of the other oracle tests never do.
func oracleGraphs(t *testing.T) []struct {
	name string
	g    *graph.MemGraph
} {
	must := func(g *graph.MemGraph, err error) *graph.MemGraph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rng := rand.New(rand.NewSource(5))
	// A hub joined to one member of each of 40 weighted 12-cliques.
	star := graph.NewBuilder(1 + 40*12)
	// Two random pieces with no edge between them.
	split := graph.NewBuilder(1500)
	edge := func(b *graph.Builder, u, v int) {
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 40; c++ {
		base := 1 + c*12
		edge(star, 0, base)
		for u := 0; u < 12; u++ {
			for v := u + 1; v < 12; v++ {
				edge(star, base+u, base+v)
			}
		}
	}
	for i := 0; i < 6000; i++ {
		lo, size := 0, 900
		if i%3 == 0 {
			lo, size = 900, 600
		}
		if u, v := lo+rng.Intn(size), lo+rng.Intn(size); u != v {
			edge(split, u, v)
		}
	}
	return []struct {
		name string
		g    *graph.MemGraph
	}{
		{"gnm", must(gen.Erdos(1000, 5000, 21))},
		{"rmat", must(gen.RMAT(2000, 12000, gen.DefaultRMAT(), 22))},
		{"barbell", gen.Barbell(150, 200)},
		{"star-of-cliques", must(star.Build())},
		{"disconnected", must(split.Build())},
	}
}

// displayOracle rescales measure.Exact's vector into the scale FLoS reports
// scores and intervals in. PHP, DHT and THT are reported as they are; EI and
// RWR up to the per-query constant Theorems 2 and 6 leave free — EI(q) and
// RWR(q)/w_q — which the oracle's own entry for q supplies.
func displayOracle(t *testing.T, g graph.Graph, q graph.NodeID, kind measure.Kind, p measure.Params) []float64 {
	t.Helper()
	scores := exactScores(t, g, q, kind, p)
	scale := 1.0
	switch kind {
	case measure.EI:
		scale = 1 / scores[q]
	case measure.RWR:
		scale = g.Degree(q) / scores[q]
	}
	for v := range scores {
		scores[v] *= scale
	}
	return scores
}

// TestBatchedStepsMatchOracle runs Theorems 1, 2 and 6 as a test at sizes
// where a step expands more than one node: for every shape × measure × k ×
// {exact, ε} × {mem, disk}, the top-k is the oracle's up to the certified
// gap, every reported interval contains the oracle score, and the gap
// trajectory is monotone; and on every shape × measure some step did expand
// more than one node.
func TestBatchedStepsMatchOracle(t *testing.T) {
	const eps = 1e-3
	for _, gc := range oracleGraphs(t) {
		lc := graph.LargestComponentNodes(gc.g)
		q := lc[len(lc)/2]
		backends := []struct {
			name string
			g    graph.Graph
		}{{"mem", gc.g}, {"disk", diskVariant(t, gc.g)}}
		for _, kind := range measure.Kinds() {
			higher := kind.HigherIsCloser()
			var oracle []float64
			batched := false
			for _, k := range []int{10, 100} {
				for _, mode := range []Mode{ModeExact, ModeEpsilon} {
					for _, be := range backends {
						label := fmt.Sprintf("%s/%v/k=%d/%v/%s", gc.name, kind, k, mode, be.name)
						opt := testOptions(kind, k)
						if mode == ModeEpsilon {
							opt.Mode, opt.Epsilon = mode, eps
						}
						tc := &TraceCollector{}
						opt.Tracer = tc
						res, err := TopK(be.g, q, opt)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if oracle == nil {
							oracle = displayOracle(t, gc.g, q, kind, opt.Params)
						}
						c := res.Certification
						if !c.Certified || len(res.TopK) != k || res.Exact != (mode == ModeExact || c.Gap <= TieEps) {
							t.Fatalf("%s: certified=%v exact=%v gap=%g with %d results", label, c.Certified, res.Exact, c.Gap, len(res.TopK))
						}
						if mode == ModeEpsilon && c.Gap > eps {
							t.Fatalf("%s: achieved gap %g exceeds ε", label, c.Gap)
						}

						// The answer is the oracle's top-k up to the certified
						// gap, which exact mode holds within TieEps.
						got := measure.Nodes(res.TopK)
						slack := displaySlack(kind, opt.Params, c.Gap) + 1e-7
						if !measure.SameSetModuloTies(got, oracle, q, k, higher, slack) {
							t.Fatalf("%s: top-k differs from the oracle's beyond the certified gap %g", label, c.Gap)
						}
						if len(c.Bounds) != k {
							t.Fatalf("%s: %d intervals for %d results", label, len(c.Bounds), k)
						}
						for _, b := range c.Bounds {
							tol := 1e-7 * (1 + abs(oracle[b.Node]))
							if oracle[b.Node] < b.Lower-tol || oracle[b.Node] > b.Upper+tol {
								t.Fatalf("%s: node %d oracle score %g outside [%g, %g]", label, b.Node, oracle[b.Node], b.Lower, b.Upper)
							}
						}

						// Same scoping as TestCertificationGapMonotone: THT's
						// fresh nodes join the rest side loose.
						prev := -1.0
						for _, s := range tc.Iters {
							if !s.GapValid {
								continue
							}
							residual := measure.CertGap(kind, s.KthBound, s.RestBound)
							if exempt := kind == measure.THT && s.NewNodes > 0; prev >= 0 && !exempt && residual > prev+1e-12+1e-9*prev {
								t.Fatalf("%s: gap grew at iteration %d: %g -> %g", label, s.Iteration, prev, residual)
							}
							prev = residual
						}
						batched = batched || slices.ContainsFunc(tc.Iters, func(s IterStats) bool { return s.Batch > 1 })
					}
				}
			}
			// A top-10 search on a path or inside a clique never has two
			// boundary nodes to take, so this holds per shape and measure,
			// not per search; without it the test could go vacuous silently.
			if !batched {
				t.Fatalf("%s/%v: no step of any search expanded more than one node", gc.name, kind)
			}
		}
	}
}

// thtLevels is the dense oracle of every level: h[l] = h^l, l = 0..L.
func thtLevels(t *testing.T, g graph.Graph, q graph.NodeID, L int) [][]float64 {
	t.Helper()
	h := make([][]float64, L+1)
	h[0] = make([]float64, g.NumNodes())
	for l := 1; l <= L; l++ {
		p := measure.DefaultParams()
		p.L = l
		h[l] = exactScores(t, g, q, measure.THT, p)
	}
	return h
}

// requireTHTLevelsValid checks lb^l ≤ h^l ≤ ub^l on every level of every
// visited node: the induction the boundary floor rests on.
func requireTHTLevelsValid(t *testing.T, label string, e *thtEngine, h [][]float64) {
	t.Helper()
	for l := 0; l <= e.L; l++ {
		for i, v := range e.nodes {
			if lo, hi, x := e.lbL[l][i], e.ubL[l][i], h[l][v]; lo > x+1e-9 || hi < x-1e-9 {
				t.Fatalf("%s: |S|=%d level %d node %d: h=%g outside [%g, %g]", label, e.size(), l, v, x, lo, hi)
			}
		}
	}
}

// TestTHTBoundaryFloorEdgeCases is the fixed-seed oracle slice for the
// conditions the boundary floor's edge cases live in, checked at every level
// after every solve, under the engine's schedule and under pure best-first
// expansion.
func TestTHTBoundaryFloorEdgeCases(t *testing.T) {
	const L = 10
	shapes := oracleGraphs(t)
	rmat, star, split := shapes[1].g, shapes[3].g, shapes[4].g
	// A pendant two hops from q (an isolated neighbor-of-neighbor: its only
	// way back is the way in), next to a 6-ring that keeps the search going.
	pendant := graph.MustFromEdges(9, 0, 1, 1, 2, 0, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0)

	drive := func(label string, g graph.Graph, q graph.NodeID, closure bool, seeds ...graph.NodeID) {
		h := thtLevels(t, g, q, L)
		e := NewWorkspace().thtFor(g, q, L)
		for _, v := range seeds {
			e.visit(v)
		}
		// The first solve runs before any expansion: q has unvisited
		// neighbors, so it sits on the boundary and pins G^m at 1.
		e.solve()
		if e.outCnt[0] <= 0 || e.outsideFloor(L) != 1 {
			t.Fatalf("%s: q on the boundary must pin the floor at 1, got %g", label, e.outsideFloor(L))
		}
		requireTHTLevelsValid(t, label, e, h)
		for {
			// The view without hop distances is pure best-first.
			v := e.keys(measure.THT)
			if !closure {
				v.dist = nil
			}
			us := pick(v, max(1, e.size()/16))
			if len(us) == 0 {
				break
			}
			for _, u := range us {
				expand(e, u, nil)
			}
			e.solve()
			requireTHTLevelsValid(t, label, e, h)
		}
		// Boundary exhausted: both systems are the component's own.
		for i, v := range e.nodes {
			if abs(e.lb(int32(i))-h[L][v]) > 1e-9 || abs(e.ub(int32(i))-h[L][v]) > 1e-9 {
				t.Fatalf("%s: exhausted but node %d has [%g, %g] for h=%g", label, v, e.lb(int32(i)), e.ub(int32(i)), h[L][v])
			}
		}
	}
	for _, closure := range []bool{true, false} {
		name := fmt.Sprintf("closure=%v/", closure)
		drive(name+"pendant", pendant, 0, closure)
		// Seeds two hops out while q itself is unexpanded.
		drive(name+"pendant-seeded", pendant, 0, closure, 2, 5)
		// A query beside the hub: best-first order defers the hub's 40-way
		// expansion while the query's own clique is drained.
		drive(name+"hub-deferred", star, 2, closure)
		drive(name+"hub-query", star, 0, closure)
		drive(name+"rmat", rmat, graph.LargestComponentNodes(rmat)[7], closure)
	}

	// A query in a component smaller than k+1: the search exhausts the
	// boundary and returns the whole component with exact scores.
	small := graph.MustFromEdges(12, 0, 1, 1, 2, 2, 0, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11)
	res, err := TopK(small, 0, testOptions(measure.THT, 10))
	if err != nil {
		t.Fatal(err)
	}
	h := exactScores(t, small, 0, measure.THT, measure.DefaultParams())
	if !res.Exact || len(res.TopK) != 3 {
		t.Fatalf("small component: exact=%v with %d results, want the 3 other members", res.Exact, len(res.TopK))
	}
	for _, r := range res.TopK {
		if abs(r.Score-h[r.Node]) > 1e-9 {
			t.Fatalf("small component: node %d score %g, exact %g", r.Node, r.Score, h[r.Node])
		}
	}

	// One warm engine across horizons: a floor remembered from the previous
	// query (longer or shorter L) must not survive reset. Each run equals a
	// cold engine's, bit for bit, and the oracle's top-k.
	ws := NewWorkspace()
	qs := graph.LargestComponentNodes(split)
	for i, L := range []int{10, 4, 12, 4, 7} {
		q := qs[(i*131)%len(qs)]
		opt := testOptions(measure.THT, 10)
		opt.Params.L = L
		warm, err := ws.TopK(context.Background(), split, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := TopK(split, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("L=%d q=%d: warm engine differs from cold:\n%+v\n%+v", L, q, warm, cold)
		}
		oracle := exactScores(t, split, q, measure.THT, opt.Params)
		if !warm.Exact || !measure.SameSetModuloTies(measure.Nodes(warm.TopK), oracle, q, 10, false, 1e-7) {
			t.Fatalf("L=%d q=%d: top-k %v differs from the oracle's", L, q, measure.Nodes(warm.TopK))
		}
		for _, b := range warm.Certification.Bounds {
			if oracle[b.Node] < b.Lower-1e-7 || oracle[b.Node] > b.Upper+1e-7 {
				t.Fatalf("L=%d q=%d: node %d oracle %g outside [%g, %g]", L, q, b.Node, oracle[b.Node], b.Lower, b.Upper)
			}
		}
	}
}
