package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"flos/internal/graph"
	"flos/internal/measure"
)

// Differential tests of the incremental frontier bookkeeping: after EVERY
// expansion of a real query (via postExpandHook), the maintained boundary
// list, interior list, O(1) counters, per-node degree splits, and the
// k-bounded candidate selection are checked against brute-force
// recomputation from the cached adjacency. Runs every measure on both graph
// backends over randomized graphs, so any drift the incremental updates
// could accumulate — a node stuck in δS, a missed interior promotion, a
// selection differing from a full sort — fails loudly at the iteration that
// introduced it.

// checkSubstrate cross-checks the localSearch bookkeeping against a from-
// scratch recomputation, the local transition matrix included.
func checkSubstrate(t *testing.T, s *localSearch) {
	t.Helper()
	checkRows(t, s)
	n := int32(s.size())

	// Per-node degree split and boundary membership from the cached
	// adjacency and the visited index.
	wantBoundary := make(map[int32]bool)
	var wantBLive, wantInterior int
	for i := int32(0); i < n; i++ {
		var d, in float64
		var out int32
		for k, u := range s.adjN[i] {
			d += s.adjW[i][k]
			if s.local.has(u) {
				in += s.adjW[i][k]
			} else {
				out++
			}
		}
		if math.Abs(d-s.deg[i]) > 1e-9*(1+math.Abs(d)) {
			t.Fatalf("deg[%d] = %g, brute force %g", i, s.deg[i], d)
		}
		if math.Abs(in-s.inW[i]) > 1e-9*(1+math.Abs(in)) {
			t.Fatalf("inW[%d] = %g, brute force %g", i, s.inW[i], in)
		}
		if out != s.outCnt[i] {
			t.Fatalf("outCnt[%d] = %d, brute force %d", i, s.outCnt[i], out)
		}
		if out > 0 {
			wantBoundary[i] = true
			wantBLive++
		} else if s.nodes[i] != s.q {
			wantInterior++
		}
	}

	// Boundary list: live entries must equal the brute-force boundary set,
	// in strictly ascending local-index order (the order every consumer's
	// schedule depends on), and the live counter must match.
	if s.bLive != wantBLive {
		t.Fatalf("bLive = %d, brute force %d", s.bLive, wantBLive)
	}
	if got := s.boundaryCount(); got != wantBLive {
		t.Fatalf("boundaryCount() = %d, brute force %d", got, wantBLive)
	}
	prev := int32(-1)
	live := 0
	for _, i := range s.bList {
		if i <= prev {
			t.Fatalf("bList not strictly ascending: %v", s.bList)
		}
		prev = i
		if s.outCnt[i] > 0 {
			live++
			if !wantBoundary[i] {
				t.Fatalf("bList live entry %d not boundary by brute force", i)
			}
		}
	}
	if live != wantBLive {
		t.Fatalf("bList live entries = %d, brute force %d", live, wantBLive)
	}

	// Interior list: exactly the non-query zero-outCnt nodes, no duplicates.
	if got := s.interiorCount(); got != wantInterior {
		t.Fatalf("interiorCount() = %d, brute force %d", got, wantInterior)
	}
	seen := make(map[int32]bool, len(s.iList))
	for _, i := range s.iList {
		if seen[i] {
			t.Fatalf("iList duplicate entry %d", i)
		}
		seen[i] = true
		if s.outCnt[i] != 0 || s.nodes[i] == s.q {
			t.Fatalf("iList entry %d: outCnt=%d q=%v", i, s.outCnt[i], s.nodes[i] == s.q)
		}
	}
	if len(seen) != wantInterior {
		t.Fatalf("iList covers %d nodes, brute force %d", len(seen), wantInterior)
	}
}

// checkRows rebuilds S's local transition matrix from scratch and requires
// the substrate's rows to equal it entry for entry, bit for bit. Edge (i, j)
// joined S when the later of its two endpoints was visited, so row i lists
// first its entries toward nodes visited before it, in i's adjacency order,
// then, per later-visited node v in visit order, its entries from v's
// adjacency row — one per adjacency entry, so parallel edges appear once per
// edge. Each entry holds w/deg_i with w read from the joining node's row;
// row q stays empty.
func checkRows(t *testing.T, s *localSearch) {
	t.Helper()
	n := int32(s.size())
	if len(s.rows) != int(n) {
		t.Fatalf("%d rows for %d visited nodes", len(s.rows), n)
	}
	want := make([][]entry, n)
	for v := int32(0); v < n; v++ { // visit order is local-index order
		for k, u := range s.adjN[v] {
			lu, ok := s.local.get(u)
			if !ok || lu > v {
				continue // unvisited, or the edge joins when u is visited
			}
			w := s.adjW[v][k]
			if s.nodes[v] != s.q {
				want[v] = append(want[v], entry{lu, w / s.deg[v]})
			}
			if s.nodes[lu] != s.q {
				want[lu] = append(want[lu], entry{v, w / s.deg[lu]})
			}
		}
	}
	if len(s.rows[0]) != 0 {
		t.Fatalf("query row holds %v, want empty", s.rows[0])
	}
	for i := range want {
		if !slices.Equal(s.rows[i], want[i]) {
			t.Fatalf("row %d (node %d) = %v, rebuilt from scratch %v", i, s.nodes[i], s.rows[i], want[i])
		}
	}
}

// checkSelection cross-checks the k-bounded offer helper against a full
// sort under the same total order (key descending, ties toward the smaller
// global identifier), on the live interior candidates.
func checkSelection(t *testing.T, s *localSearch, k int, key func(int32) float64) {
	t.Helper()
	var got []scored
	for _, i := range s.iList {
		got = s.offer(got, k, i, key(i))
	}
	want := make([]scored, 0, len(s.iList))
	for _, i := range s.iList {
		want = append(want, scored{i, key(i)})
	}
	slices.SortFunc(want, func(a, b scored) int {
		if a.key != b.key {
			if a.key > b.key {
				return -1
			}
			return 1
		}
		if s.nodes[a.i] < s.nodes[b.i] {
			return -1
		}
		return 1
	})
	if k > len(want) {
		k = len(want)
	}
	want = want[:k]
	if len(got) != len(want) {
		t.Fatalf("selection size %d, brute force %d", len(got), len(want))
	}
	for j := range got {
		if got[j].i != want[j].i || got[j].key != want[j].key {
			t.Fatalf("selection[%d] = {%d %g}, brute force {%d %g}",
				j, got[j].i, got[j].key, want[j].i, want[j].key)
		}
	}
}

// TestSubstrateDifferential drives full queries for all five measures on
// randomized graphs and a graph with parallel edges, over both backends,
// with the per-expansion cross-check installed.
func TestSubstrateDifferential(t *testing.T) {
	graphs := map[string]*graph.MemGraph{
		"rand150": randomConnected(t, 150, 320, 11),
		"rand80":  randomConnected(t, 80, 120, 5),
		// Parallel edges: each clique's first two members are joined twice.
		"stars": starOfCliques(t, 6, 5),
	}
	kinds := []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.RWR, measure.THT}

	for gname, mem := range graphs {
		for _, backend := range []string{"mem", "disk"} {
			var g graph.Graph = mem
			if backend == "disk" {
				g = diskVariant(t, mem)
			}
			for _, kind := range kinds {
				t.Run(gname+"/"+backend+"/"+kind.String(), func(t *testing.T) {
					opt := testOptions(kind, 8)
					checks := 0
					postExpandHook = func(engine any) {
						checks++
						switch e := engine.(type) {
						case *phpEngine:
							checkSubstrate(t, &e.localSearch)
							rwr := kind == measure.RWR
							checkSelection(t, &e.localSearch, opt.K, func(i int32) float64 {
								key := e.lbAt(i)
								if rwr {
									key *= e.deg[i]
								}
								return key
							})
						case *thtEngine:
							checkSubstrate(t, &e.localSearch)
							// Lower is closer: the driver selects by −ub.
							checkSelection(t, &e.localSearch, opt.K, func(i int32) float64 { return -e.ub(i) })
						default:
							t.Fatalf("unexpected engine %T", engine)
						}
					}
					defer func() { postExpandHook = nil }()
					if _, err := TopK(g, 3, opt); err != nil {
						t.Fatal(err)
					}
					if checks == 0 {
						t.Fatal("hook never fired")
					}
				})
			}
		}
	}

	// The unified loop shares the PHP engine; run it once with the hook to
	// cover its expansion path too.
	t.Run("unified", func(t *testing.T) {
		opt := testOptions(measure.PHP, 8)
		checks := 0
		postExpandHook = func(engine any) {
			checks++
			e, ok := engine.(*phpEngine)
			if !ok {
				t.Fatalf("unexpected engine %T", engine)
			}
			checkSubstrate(t, &e.localSearch)
		}
		defer func() { postExpandHook = nil }()
		if _, err := UnifiedTopK(graphs["rand150"], 3, opt); err != nil {
			t.Fatal(err)
		}
		if checks == 0 {
			t.Fatal("hook never fired")
		}
	})
}

// checkShellBound recomputes the shell bound R from scratch, from every
// unvisited node's full adjacency and Degree rather than from the shell
// slots and their keys, and requires shellBound to agree within 1e-12
// relative. A non-empty shell must give a positive R: S lies in q's
// component, so every upper bound on it is at least a positive PHP, and an
// R of 0 there means the bounds collapsed with the shell bound, which the
// comparison alone would not see. Returns how many shell nodes it saw.
func checkShellBound(t *testing.T, e *phpEngine) int {
	t.Helper()
	want, shell := 0.0, 0
	for u := graph.NodeID(0); int(u) < e.g.NumNodes(); u++ {
		if e.local.has(u) {
			continue
		}
		var w, a float64
		nbrs, ws := e.g.Neighbors(u)
		for k, j := range nbrs {
			if lj, ok := e.local.get(j); ok {
				w += ws[k]
				a += ws[k] * e.ubAt(lj)
			}
		}
		if w == 0 {
			continue
		}
		shell++
		d := e.g.Degree(u)
		want = max(want, e.c*a/((1-e.c)*d+e.c*min(w, d)))
	}
	if shell > 0 && !(want > 0) {
		t.Fatalf("|S| = %d: %d shell nodes but a from-scratch R of %g", e.size(), shell, want)
	}
	if got := e.shellBound(); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("|S| = %d: shellBound %g, from scratch %g", e.size(), got, want)
	}
	return shell
}

// TestShellBoundMatchesScratch: after every step of PHP, RWR and unified
// searches, exact and ε, on both backends, the shell bound the boundary
// pass computes equals a from-scratch evaluation over every unvisited node.
func TestShellBoundMatchesScratch(t *testing.T) {
	for _, bg := range boundGraphs(t) {
		disk := diskVariant(t, bg.g)
		for _, search := range []string{"PHP", "RWR", "unified"} {
			for _, eps := range []float64{0, 1e-3} {
				for _, backend := range []string{"mem", "disk"} {
					var g graph.Graph = bg.g
					if backend == "disk" {
						g = disk
					}
					kind := measure.PHP
					if search == "RWR" {
						kind = measure.RWR
					}
					opt := testOptions(kind, 10)
					if eps > 0 {
						opt.Mode, opt.Epsilon = ModeEpsilon, eps
					}
					checked := 0
					postExpandHook = func(engine any) {
						checked += checkShellBound(t, engine.(*phpEngine))
					}
					var err error
					if search == "unified" {
						_, err = UnifiedTopK(g, bg.q, opt)
					} else {
						_, err = TopK(g, bg.q, opt)
					}
					postExpandHook = nil
					if err != nil {
						t.Fatal(err)
					}
					if checked == 0 {
						t.Fatalf("%s/%s/eps=%g/%s: no shell node checked", bg.name, search, eps, backend)
					}
				}
			}
		}
	}
}

// TestQueryNodeNeverLiveBoundary pins the invariant that lets the boundary
// loops of check skip nodes by outCnt alone: the first step picks
// q, the only node of S, and expands it fully, so after every expansion
// local index 0 is q and has no neighbor outside S.
func TestQueryNodeNeverLiveBoundary(t *testing.T) {
	for _, gc := range goldenGraphs(t) {
		for _, q := range goldenQueries(gc.g.NumNodes()) {
			for _, kind := range measure.Kinds() {
				checks := 0
				postExpandHook = func(engine any) {
					checks++
					s := engine.(interface{ substrate() *localSearch }).substrate()
					if s.nodes[0] != q || s.outCnt[0] != 0 {
						t.Fatalf("%s q=%d %v: local 0 is node %d with %d neighbors outside S",
							gc.name, q, kind, s.nodes[0], s.outCnt[0])
					}
				}
				_, err := TopK(gc.g, q, goldenOptions(kind))
				postExpandHook = nil
				if err != nil {
					t.Fatal(err)
				}
				if checks == 0 {
					t.Fatalf("%s q=%d %v: hook never fired", gc.name, q, kind)
				}
			}
		}
	}
}

// TestSubstrateDifferentialWarm repeats the cross-check through a reused
// workspace, covering the generation-stamped reset path.
func TestSubstrateDifferentialWarm(t *testing.T) {
	g := randomConnected(t, 120, 260, 23)
	ws := NewWorkspace()
	for _, kind := range []measure.Kind{measure.PHP, measure.RWR, measure.THT} {
		for _, q := range []graph.NodeID{0, 60, 119} {
			opt := testOptions(kind, 6)
			postExpandHook = func(engine any) {
				switch e := engine.(type) {
				case *phpEngine:
					checkSubstrate(t, &e.localSearch)
				case *thtEngine:
					checkSubstrate(t, &e.localSearch)
				}
			}
			if _, err := ws.TopK(context.Background(), g, q, opt); err != nil {
				postExpandHook = nil
				t.Fatal(err)
			}
			postExpandHook = nil
		}
	}
}
