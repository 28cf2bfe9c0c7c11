package measure

import (
	"math"
	"slices"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
)

// ball returns the nodes within r hops of q, in BFS order.
func ball(g graph.Graph, q graph.NodeID, r int) []graph.NodeID {
	dist := map[graph.NodeID]int{q: 0}
	out := []graph.NodeID{q}
	for i := 0; i < len(out); i++ {
		u := out[i]
		if dist[u] == r {
			continue
		}
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				out = append(out, v)
			}
		}
	}
	return out
}

func localTestGraphs(t *testing.T) map[string]graph.Graph {
	t.Helper()
	erdos, err := gen.Erdos(400, 1600, 3)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := gen.Community(600, 1800, gen.DefaultCommunityParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]graph.Graph{"erdos": erdos, "community": comm, "paper": gen.PaperExample()}
}

// TestLocalProofIsValid: on growing balls around a query, every interval
// CheckLocal derives holds the exact PHP of its node and its dummy value
// bounds the exact PHP of every unvisited node. Setting r_d below the
// largest unvisited PHP, or dropping an entry from a rebuilt row, breaks
// one of the two.
func TestLocalProofIsValid(t *testing.T) {
	for name, g := range localTestGraphs(t) {
		for _, kind := range []Kind{PHP, RWR} {
			p := DefaultParams()
			pp, _ := EquivalentPHPParams(kind, p)
			pp.Tau, pp.MaxIter = 1e-14, 1000000
			exact, _, err := Exact(g, 0, PHP, pp)
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r <= 4; r++ {
				s := ball(g, 0, r)
				pf, err := CheckLocal(g, 0, kind, p, s, nil, 0)
				if err != nil {
					t.Fatalf("%s/%v/r=%d: %v", name, kind, r, err)
				}
				in := map[graph.NodeID]bool{}
				for i, v := range s {
					in[v] = true
					if tol := 1e-12; exact[v] < pf.Lower[i]-tol || exact[v] > pf.Upper[i]+tol {
						t.Fatalf("%s/%v/r=%d: node %d PHP %g outside [%g, %g]", name, kind, r, v, exact[v], pf.Lower[i], pf.Upper[i])
					}
				}
				for v, x := range exact {
					if !in[graph.NodeID(v)] && x > pf.Rd+1e-12 {
						t.Fatalf("%s/%v/r=%d: r_d %g below unvisited node %d's PHP %g", name, kind, r, pf.Rd, v, x)
					}
				}
			}
		}
	}
}

// TestLocalCheckRejectsSwappedAnswer: with S the whole graph the exact
// top-k is certified, and the same answer with its k-th node swapped for
// the (k+1)-th is refused.
func TestLocalCheckRejectsSwappedAnswer(t *testing.T) {
	for name, g := range localTestGraphs(t) {
		for _, kind := range []Kind{PHP, EI, DHT, RWR} {
			p := DefaultParams()
			p.Tau, p.MaxIter = 1e-14, 1000000
			scores, _, err := Exact(g, 0, kind, p)
			if err != nil {
				t.Fatal(err)
			}
			const k = 3
			ranked := TopK(scores, 0, k+1, kind.HigherIsCloser())
			if math.Abs(ranked[k-1].Score-ranked[k].Score) < 1e-9 {
				t.Fatalf("%s/%v: k-th and (k+1)-th tie", name, kind)
			}
			all := ball(g, 0, g.NumNodes())
			top := Nodes(ranked[:k])
			if _, err := CheckLocal(g, 0, kind, p, all, top, 1e-9); err != nil {
				t.Fatalf("%s/%v: exact answer refused: %v", name, kind, err)
			}
			swapped := slices.Clone(top)
			swapped[k-1] = ranked[k].Node
			if _, err := CheckLocal(g, 0, kind, p, all, swapped, 1e-9); err == nil {
				t.Fatalf("%s/%v: answer with the (k+1)-th for the k-th accepted", name, kind)
			}
		}
	}
}

// TestLocalCheckRefusesTHT: THT has no PHP-family proof.
func TestLocalCheckRefusesTHT(t *testing.T) {
	g := gen.PaperExample()
	if _, err := CheckLocal(g, 0, THT, DefaultParams(), []graph.NodeID{0}, nil, 0); err == nil {
		t.Fatal("THT accepted")
	}
}
