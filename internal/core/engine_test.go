package core

// White-box tests of the bound-engine internals: visited-set bookkeeping,
// transition wiring, dummy-node management, the worklist
// solver, and the THT engine's distance maintenance.

import (
	"math"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/linalg"
	"flos/internal/measure"
)

func newTestEngine(t *testing.T, g graph.Graph, q graph.NodeID, c float64) *phpEngine {
	t.Helper()
	return NewWorkspace().phpFor(g, q, measure.Params{C: c, Tau: 1e-12, MaxIter: 100000}, Options{})
}

// rowAt returns the transition entry of local row i toward j (summed over
// parallel edges), 0 if none.
func rowAt(s *localSearch, i, j int32) float64 {
	var p float64
	for _, en := range s.rows[i] {
		if en.j == j {
			p += en.p
		}
	}
	return p
}

func TestEngineVisitBookkeeping(t *testing.T) {
	g := gen.PaperExample()
	e := newTestEngine(t, g, 0, 0.8)
	// After construction S = {q}.
	if e.size() != 1 || e.nodes[0] != 0 {
		t.Fatalf("initial S wrong: %v", e.nodes)
	}
	if e.outCnt[0] <= 0 {
		t.Fatal("query with neighbors must start as boundary")
	}
	if e.outCnt[0] != 2 {
		t.Fatalf("outCnt(q) = %d, want 2 (nodes 2,3 unvisited)", e.outCnt[0])
	}
	added := expand(e, 0, nil)
	if len(added) != 2 {
		t.Fatalf("expanding q added %v", added)
	}
	if e.outCnt[0] > 0 {
		t.Fatal("q still boundary after expanding both neighbors")
	}
	// Node 1 (paper 2) has neighbors {0, 3}: one unvisited.
	li, _ := e.local.get(1)
	if e.outCnt[li] != 1 {
		t.Fatalf("outCnt(node 2) = %d, want 1", e.outCnt[li])
	}
	if got := e.outMass(li); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("outMass(node 2) = %g, want 0.5", got)
	}
	// Transition rows: node 1's row must hold p(2→1) = 1/2 toward q.
	if got := rowAt(&e.localSearch, li, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("T[2→1] = %g, want 0.5", got)
	}
	// The query's row stays empty.
	if len(e.rows[0]) != 0 {
		t.Fatalf("query row non-empty: %v", e.rows[0])
	}
}

// TestEngineLowerBoundMatchesDeletedSystem: after a couple of expansions the
// solved lower bound equals a direct dense solve of the deletion system
// (all transition probabilities touching S̄ removed).
func TestEngineLowerBoundMatchesDeletedSystem(t *testing.T) {
	g := gen.PaperExample()
	c := 0.8
	e := newTestEngine(t, g, 0, c)
	expand(e, 0, nil) // S = {1,2,3} (paper numbering)
	l1, _ := e.local.get(1)
	expand(e, l1, nil) // + node 4
	e.solve()

	// Dense solve on the same local system.
	n := e.size()
	a := linalg.Identity(n)
	for i := 0; i < n; i++ {
		for _, en := range e.rows[i] {
			a.Add(i, int(en.j), -c*en.p)
		}
	}
	rhs := make([]float64, n)
	rhs[0] = 1
	want, err := linalg.SolveDense(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(e.lbAt(int32(i))-want[i]) > 1e-9 {
			t.Fatalf("lb[%d] = %g, dense = %g", i, e.lbAt(int32(i)), want[i])
		}
	}
}

// TestEngineUpperBoundMatchesDummySystem: the solved upper bound equals a
// dense solve of the dummy-node system with the current rd.
func TestEngineUpperBoundMatchesDummySystem(t *testing.T) {
	g := gen.PaperExample()
	c := 0.8
	e := newTestEngine(t, g, 0, c)
	e.updateDummy()
	expand(e, 0, nil)
	e.solve()

	n := e.size()
	a := linalg.Identity(n)
	rhs := make([]float64, n)
	rhs[0] = 1
	for i := 0; i < n; i++ {
		li := int32(i)
		for _, en := range e.rows[li] {
			a.Add(i, int(en.j), -c*en.p)
		}
		rhs[i] += c * e.dummyEntry(li) * e.rd
	}
	want, err := linalg.SolveDense(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(e.ubAt(int32(i))-want[i]) > 1e-9 {
			t.Fatalf("ub[%d] = %g, dense = %g", i, e.ubAt(int32(i)), want[i])
		}
	}
}

// TestEngineDummyMonotone: rd never increases, and committing requires a
// drop beyond τ/16.
func TestEngineDummyMonotone(t *testing.T) {
	g := gen.PaperExample()
	e := newTestEngine(t, g, 0, 0.8)
	if e.rd != 1 {
		t.Fatalf("initial rd = %g", e.rd)
	}
	prev := e.rd
	for i := 0; i < 6; i++ {
		e.updateDummy()
		if e.rd > prev {
			t.Fatalf("rd rose %g -> %g", prev, e.rd)
		}
		prev = e.rd
		us := pick(e.keys(measure.PHP), 1)
		if len(us) == 0 {
			break
		}
		expand(e, us[0], nil)
		e.solve()
	}
	// Exhausted: rd drops to 0.
	e.updateDummy()
	if e.rd != 0 {
		t.Fatalf("exhausted rd = %g, want 0", e.rd)
	}
}

// TestEnginePickExpansionBatch: the batch selection returns the boundary
// nodes in priority order without duplicates.
func TestEnginePickExpansionBatch(t *testing.T) {
	g := gen.Star(8)
	e := newTestEngine(t, g, 1, 0.5) // query = a leaf
	expand(e, 0, nil)                // visit the center, exposing 7 leaves... via expansion of q
	// Expand q (local 0) first: adds center.
	// (constructor already visited q; local 0 = q)
	e.solve()
	us := pick(e.keys(measure.PHP), 3)
	if len(us) == 0 {
		t.Fatal("no expansion candidates")
	}
	seen := map[int32]bool{}
	for _, u := range us {
		if seen[u] {
			t.Fatal("duplicate in batch")
		}
		seen[u] = true
		if e.outCnt[u] <= 0 {
			t.Fatal("non-boundary node picked")
		}
	}
	// Priorities must be non-increasing.
	key := func(i int32) float64 { return (e.lbAt(i) + e.ubAt(i)) / 2 }
	for i := 1; i < len(us); i++ {
		if key(us[i]) > key(us[i-1])+1e-15 {
			t.Fatalf("batch out of order at %d", i)
		}
	}
}

// TestTHTEngineDistances: within-S shortest-path distances stay correct as
// the search expands, including shortcut relaxation.
func TestTHTEngineDistances(t *testing.T) {
	// Ring of 8: expanding around the ring gives distances; a visit closing
	// the ring must relax the far side.
	g := gen.Ring(8)
	e := NewWorkspace().thtFor(g, 0, 10)
	for e.size() < 8 {
		us := pick(e.keys(measure.THT), 1)
		if len(us) == 0 {
			break
		}
		expand(e, us[0], nil)
		e.solve()
	}
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for v := 0; v < 8; v++ {
		li, _ := e.local.get(graph.NodeID(v))
		if e.dist[li] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, e.dist[li], want[v])
		}
	}
}

// TestTHTEngineOutsideFloor: after every expansion the boundary floor G^l
// dominates the hop floor min(l, D+1) it replaced and stays below the exact
// h^l of every unvisited node, under the engine's schedule and under pure
// best-first expansion (no hop closure).
func TestTHTEngineOutsideFloor(t *testing.T) {
	const L = 10
	graphs := []struct {
		name string
		g    *graph.MemGraph
		q    graph.NodeID
	}{
		{"path", gen.Path(30), 0},
		{"path-mid", gen.Path(30), 12},
		{"star-leaf", gen.Star(8), 1},
		{"star-center", gen.Star(8), 0},
		{"fig1", gen.PaperExample(), 0},
	}
	for _, tc := range graphs {
		exact := thtLevels(t, tc.g, tc.q, L)
		for _, closure := range []bool{true, false} {
			e := NewWorkspace().thtFor(tc.g, tc.q, L)
			for it := 1; ; it++ {
				// The view without hop distances is pure best-first.
				v := e.keys(measure.THT)
				if !closure {
					v.dist = nil
				}
				us := pick(v, 1)
				if len(us) == 0 {
					break
				}
				for _, u := range us {
					expand(e, u, nil)
				}
				e.solve()
				hop := distInf // D+1
				for _, i := range e.bList {
					if e.outCnt[i] > 0 && e.dist[i]+1 < hop {
						hop = e.dist[i] + 1
					}
				}
				for l := 0; l <= L; l++ {
					G := e.outsideFloor(l)
					if want := math.Min(float64(l), float64(hop)); G < want {
						t.Fatalf("%s closure=%v iter %d: G^%d = %g below the hop floor %g", tc.name, closure, it, l, G, want)
					}
					for u := 0; l > 0 && u < tc.g.NumNodes(); u++ {
						if !e.local.has(graph.NodeID(u)) && G > exact[l][u]+1e-12 {
							t.Fatalf("%s closure=%v iter %d: G^%d = %g above h^%d(%d) = %g", tc.name, closure, it, l, G, l, u, exact[l][u])
						}
					}
				}
			}
		}
	}
}

// TestTHTEngineBoundsMatchScratch: the incremental level recursion equals a
// from-scratch dense recomputation of the same two systems: outside mass of
// the level-l equation at G^{l−1} = 1 + min_{δS} lb^{l−2} below and at l−1
// above.
func TestTHTEngineBoundsMatchScratch(t *testing.T) {
	g := gen.PaperExample()
	L := 6
	e := NewWorkspace().thtFor(g, 0, L)
	for it := 0; it < 6; it++ {
		us := pick(e.keys(measure.THT), 1)
		if len(us) == 0 {
			break
		}
		expand(e, us[0], nil)
		e.solve()

		// From-scratch recomputation: lbs[l] / ubs[l] are whole levels.
		n := e.size()
		lbs := make([][]float64, L+1)
		ubs := make([][]float64, L+1)
		lbs[0], ubs[0] = make([]float64, n), make([]float64, n)
		for l := 1; l <= L; l++ {
			lbs[l], ubs[l] = make([]float64, n), make([]float64, n)
			fl := 0.0 // G^{l-1}
			if l >= 2 {
				fl = float64(l - 2)
				for i := 0; i < n; i++ {
					if e.outCnt[i] > 0 {
						fl = math.Min(fl, lbs[l-2][i])
					}
				}
				fl++
			}
			for i := 0; i < n; i++ {
				if e.nodes[i] == e.q {
					continue
				}
				sLo, sHi := 1.0, 1.0
				for _, en := range e.rows[i] {
					sLo += en.p * lbs[l-1][en.j]
					sHi += en.p * ubs[l-1][en.j]
				}
				if e.outCnt[i] > 0 {
					om := e.outMass(int32(i))
					sLo += om * fl
					sHi += om * float64(l-1)
				}
				ubs[l][i] = math.Min(sHi, float64(l))
				lbs[l][i] = math.Min(sLo, ubs[l][i])
			}
		}
		for l := 0; l <= L; l++ {
			for i := 0; i < n; i++ {
				if math.Abs(e.lbL[l][i]-lbs[l][i]) > 1e-12 {
					t.Fatalf("iter %d: incremental lb^%d[%d]=%g scratch=%g", it, l, i, e.lbL[l][i], lbs[l][i])
				}
				if math.Abs(e.ubL[l][i]-ubs[l][i]) > 1e-12 {
					t.Fatalf("iter %d: incremental ub^%d[%d]=%g scratch=%g", it, l, i, e.ubL[l][i], ubs[l][i])
				}
			}
		}
	}
}
