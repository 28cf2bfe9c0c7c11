package core

import (
	"math"
	"slices"
	"testing"

	"flos/internal/graph"
	"flos/internal/measure"
)

// mirror returns v seen from the other orientation: its bound arrays
// negated, its sign flipped. The keys it yields are v's bit for bit, so every
// selection the driver makes over it must equal v's, and every observable it
// reports must be the exact negation of v's. A sign −1 mirror of a PHP view
// is PHP dressed as a lower-is-closer measure (THT's orientation), with the
// certified side −lb and the competing side −ub.
func mirror(v keyView) keyView {
	n := v.s.size()
	m := v
	m.lo, m.hi, m.stride, m.sign = make([]float64, n), make([]float64, n), 1, -v.sign
	for i := range n {
		m.lo[i], m.hi[i] = -v.lo[v.stride*i], -v.hi[v.stride*i]
	}
	return m
}

// negated reports that b is the exact floating-point negation of a.
func negated(a, b float64) bool { return math.Float64bits(-a) == math.Float64bits(b) }

// requireMirrorCheck runs the driver's stopping rule on v and on its mirror
// with one outside key and one incumbent, and requires the same selection,
// the same verdict and exactly negated observables (both the zero value when
// the test exits before comparing bounds). It returns v's outcome.
func requireMirrorCheck(t *testing.T, label string, v keyView, outside float64, incumbent []int32, k int) ([]int32, certGap, bool) {
	t.Helper()
	sel, gap, ok := check(v, outside, incumbent, nil, k, 1e-9)
	msel, mgap, mok := check(mirror(v), outside, incumbent, nil, k, 1e-9)
	if (sel == nil) != (msel == nil) || !slices.Equal(sel, msel) || ok != mok {
		t.Fatalf("%s k=%d: selection %v (certified %v), mirrored %v (certified %v)", label, k, sel, ok, msel, mok)
	}
	if !gap.valid && (gap != certGap{} || mgap != certGap{}) ||
		gap.valid && (!mgap.valid || !negated(gap.kth, mgap.kth) || !negated(gap.rest, mgap.rest)) {
		t.Fatalf("%s k=%d: observables %+v, mirrored %+v are not exact negations", label, k, gap, mgap)
	}
	return sel, gap, ok
}

// remoteHub returns g with a hub of `leaves` pendant neighbors hung off the
// node farthest from q: a high-degree node the search reaches last, so the
// RWR guard's w(S̄) stays large while S grows and the guard binds.
func remoteHub(t *testing.T, g *graph.MemGraph, q graph.NodeID, leaves int) *graph.MemGraph {
	t.Helper()
	n := g.NumNodes()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[q] = 0
	far := q
	for queue := []graph.NodeID{q}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		far = u
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	b := graph.NewBuilder(n + 1 + leaves)
	add := func(u, v graph.NodeID, w float64) {
		if err := b.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	for u := range graph.NodeID(n) {
		nbrs, ws := g.Neighbors(u)
		for k, v := range nbrs {
			if u < v {
				add(u, v, ws[k])
			}
		}
	}
	hub := graph.NodeID(n)
	add(far, hub, 1)
	for l := range leaves {
		add(hub, hub+1+graph.NodeID(l), 1)
	}
	hg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return hg
}

// TestKeyViewMirrorIsExact drives real expansions of both engines and, after
// every solve, runs the search loop's stopping test (check), its expansion
// pick (pick) and its forced selection (forceSelect) on the engine's
// view and on its hand-built mirror: PHP and RWR views mirrored into the
// lower-is-closer orientation, and THT's view mirrored back. Covered: k = 0,
// k beyond the candidates, exhaustion, the RWR guard, which is a finite
// competing key exactly while the boundary is live and counts one degree
// probe per stopping test, the incumbent selection each test keeps or
// replaces, and the PHP engine's pick priority to the bit. A remote hub
// keeps w(S̄) high, so the guard, which reads r_d, binds.
func TestKeyViewMirrorIsExact(t *testing.T) {
	const q = graph.NodeID(3)
	g := remoteHub(t, randomConnected(t, 60, 90, 7), q, 200)
	for _, kind := range []measure.Kind{measure.PHP, measure.RWR, measure.THT} {
		t.Run(kind.String(), func(t *testing.T) {
			opt := testOptions(kind, 8)
			var e engine
			if kind == measure.THT {
				e = NewWorkspace().thtFor(g, q, opt.Params.L)
			} else {
				p, err := measure.EquivalentPHPParams(kind, opt.Params)
				if err != nil {
					t.Fatal(err)
				}
				e = NewWorkspace().phpFor(g, q, p, opt)
			}
			s := e.substrate()
			e.solve()
			guardBinding, certified := 0, 0
			incumbent := map[int][]int32{}
			for it := 1; ; it++ {
				v := e.keys(kind)
				outside := math.Inf(-1)
				if php, ok := e.(*phpEngine); ok {
					probes := php.degreeProbes
					outside = e.outside(kind)
					if want := btoi(kind == measure.RWR); php.degreeProbes != probes+want {
						t.Fatalf("iter %d: outside read %d degree probes, want %d", it, php.degreeProbes-probes, want)
					}
				} else if e.outside(kind) != outside {
					t.Fatalf("iter %d: THT outside term %g, want -Inf", it, e.outside(kind))
				}
				if kind == measure.RWR && (s.bLive > 0) == math.IsInf(outside, -1) {
					t.Fatalf("iter %d: RWR guard %g with %d live boundary nodes", it, outside, s.bLive)
				}
				for _, k := range []int{0, 1, 8, 200} {
					sel, gap, ok := requireMirrorCheck(t, kind.String(), v, outside, incumbent[k], k)
					if k == 0 && (sel == nil || len(sel) != 0 || gap.valid || !ok) {
						t.Fatalf("iter %d: k=0 gave %v, %+v; want an empty certified selection", it, sel, gap)
					}
					if sel != nil {
						incumbent[k] = sel
					}
					if k == 8 && ok {
						certified++
					}
					if k == 8 && gap.valid && gap.rest == outside {
						guardBinding++
					}
				}
				for _, k := range []int{1, 8, 200} {
					if a, b := forceSelect(v, nil, k), forceSelect(mirror(v), nil, k); !slices.Equal(a, b) {
						t.Fatalf("iter %d k=%d: forced %v, mirrored %v", it, k, a, b)
					}
				}
				e.beginIteration()
				v = e.keys(kind)
				budget := max(1, s.size()/16)
				us := slices.Clone(pick(v, budget))
				if m := pick(mirror(v), budget); !slices.Equal(us, m) {
					t.Fatalf("iter %d: pick %v, mirrored %v", it, us, m)
				}
				if php, ok := e.(*phpEngine); ok {
					// Section 5.6's priority rounded as written, ((lb+ub)/2)·deg:
					// (lb·deg+ub·deg)/2 differs in the last bit and can reorder
					// near-ties.
					for _, c := range s.pickBuf {
						want := (php.lbAt(c.i) + php.ubAt(c.i)) / 2
						if kind == measure.RWR {
							want *= php.deg[c.i]
						}
						if math.Float64bits(c.key) != math.Float64bits(want) {
							t.Fatalf("iter %d: node %d picked at priority %v, want %v", it, c.i, c.key, want)
						}
					}
				}
				if len(us) == 0 {
					break // exhausted: the last round ran every test on the whole component
				}
				for _, u := range us {
					expand(e, u, nil)
				}
				e.solve()
			}
			if s.bLive != 0 || s.size() != g.NumNodes() {
				t.Fatalf("search ended with %d live boundary nodes, %d of %d visited", s.bLive, s.size(), g.NumNodes())
			}
			if certified == 0 {
				t.Fatal("no iteration certified a top-8")
			}
			if kind == measure.RWR && guardBinding == 0 {
				t.Fatal("the RWR guard never was the binding competitor")
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
