package core

import (
	"math"
	"slices"

	"flos/internal/graph"
	"flos/internal/measure"
)

// thtEngine is the finite-horizon FLoS variant for L-truncated hitting time
// (appendix 10.4), built on the shared localSearch substrate. The same
// visited-set machinery applies, with the bound roles mirrored because lower
// values mean closer:
//
//   - lower bound: boundary-crossing mass of the level-l equation is valued
//     at the boundary floor G^{l−1} (see outsideFloor): the paper's
//     no-local-optimum rule, Theorem 1's corollary, written per level. The
//     appendix's plain deletion corresponds to floor 0. This is the
//     optimistic boundary bound of the GRANCH line of work [17], and it is
//     what lets the search stop without draining expander-like graphs.
//   - upper bound: boundary-crossing mass of the level-l equation is
//     redirected into a dummy pinned at l−1 (h^{l−1} ≤ l−1 everywhere), with
//     each level-l value additionally capped at l.
//
// The L-level recursion is maintained incrementally: level l of a node is
// recomputed only when level l−1 of a neighbor (or its own boundary terms)
// changed, so per-iteration cost tracks the changed region rather than
// |S|·L.
//
// Like phpEngine, a thtEngine lives in a Workspace and is reusable via
// reset: slices truncate in place and the global→local index clears by
// generation bump. Both bound systems solve over the substrate's rows.
type thtEngine struct {
	localSearch

	L int

	// dist is the within-S shortest hop distance from q, maintained to
	// fixpoint as S grows; it drives the hop closure (closeHops).
	dist []int32

	// lbL[l][i] / ubL[l][i] are the level-l bound values, l = 0..L; level 0
	// is identically zero. The external bounds are level L.
	lbL, ubL [][]float64

	// Dirty tracking per level: queue[l] holds rows whose level-l equation
	// must be re-evaluated.
	inQ   [][]bool
	queue [][]int32

	// floorL[m] is the G^m the last solve valued outside mass at; a level
	// whose floor moved re-dirties the live boundary rows one level up.
	floorL []float64

	distQ []int32
}

const distInf = int32(1 << 30)

// reset prepares the engine for a new query (possibly a new horizon L and a
// new graph), reusing retained storage; see phpEngine.reset.
func (e *thtEngine) reset(g graph.Graph, q graph.NodeID, L int) {
	e.L = L

	e.resetCommon(g, q)

	e.dist = e.dist[:0]

	if cap(e.lbL) < L+1 {
		e.lbL = make([][]float64, L+1)
		e.ubL = make([][]float64, L+1)
		e.inQ = make([][]bool, L+1)
		e.queue = make([][]int32, L+1)
	} else {
		e.lbL = e.lbL[:L+1]
		e.ubL = e.ubL[:L+1]
		e.inQ = e.inQ[:L+1]
		e.queue = e.queue[:L+1]
	}
	for l := 0; l <= L; l++ {
		e.lbL[l] = e.lbL[l][:0]
		e.ubL[l] = e.ubL[l][:0]
		e.inQ[l] = e.inQ[l][:0]
		e.queue[l] = e.queue[l][:0]
	}

	e.floorL = slices.Grow(e.floorL[:0], L)[:L]
	for m := range e.floorL {
		e.floorL[m] = -1 // no floor is negative: the first solve dirties every level
	}

	e.visit(q)
}

// usedBytes counts the engine's slices for Workspace.UsedBytes.
func (e *thtEngine) usedBytes() int {
	return e.localSearch.usedBytes() + bytesOf(e.dist) +
		rowBytes(e.lbL) + rowBytes(e.ubL) + rowBytes(e.inQ) + rowBytes(e.queue) +
		bytesOf(e.floorL) + bytesOf(e.distQ)
}

// visit pulls node v into S: the substrate maintains the visited-set and
// frontier bookkeeping and wires the transition entries in both
// directions, then this appends the level-bound rows and maintains the
// within-S distance. Precondition: v not yet visited.
func (e *thtEngine) visit(v graph.NodeID) {
	li := e.visitCommon(v)
	for l := 0; l <= e.L; l++ {
		e.lbL[l] = append(e.lbL[l], 0)
		// Initial upper value min(l, L) = l is always valid: r^l ≤ l.
		init := float64(l)
		if v == e.q {
			init = 0
		}
		e.ubL[l] = append(e.ubL[l], init)
		e.inQ[l] = append(e.inQ[l], false)
	}

	// Within-S distance of the new node, then propagate any shortcuts it
	// creates.
	nd := distInf
	if v == e.q {
		nd = 0
	}
	e.dist = append(e.dist, nd)

	// The already-visited neighbors' equations changed (a new entry toward
	// v and smaller outside mass), so every level is re-dirtied.
	for _, lu := range e.visitL {
		if lu < 0 {
			continue
		}
		e.markAllLevels(lu)
		if e.dist[lu]+1 < e.dist[li] {
			e.dist[li] = e.dist[lu] + 1
		}
	}
	e.markAllLevels(li)
	e.relaxDistFrom(li)
}

// relaxDistFrom propagates shortest-path improvements created by a new or
// shortened node (unit hops, BFS-style worklist).
func (e *thtEngine) relaxDistFrom(start int32) {
	// Pop by head index: queue = queue[1:] erodes the retained capacity one
	// slot per pop (see phpEngine.solve), and every visit of a warm
	// query would then reallocate.
	queue := append(e.distQ[:0], start)
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		di := e.dist[i]
		if di == distInf {
			continue
		}
		for _, en := range e.rows[i] {
			if j := en.j; e.dist[j] > di+1 {
				e.dist[j] = di + 1
				queue = append(queue, j)
			}
		}
	}
	e.distQ = queue[:0]
}

// markAllLevels dirties every level of one row.
func (e *thtEngine) markAllLevels(i int32) {
	if e.nodes[i] == e.q {
		return
	}
	for l := 1; l <= e.L; l++ {
		if !e.inQ[l][i] {
			e.inQ[l][i] = true
			e.queue[l] = append(e.queue[l], i)
		}
	}
}

func (e *thtEngine) outMass(i int32) float64 {
	// A degree-0 node's walk goes nowhere: full mass "outside".
	return e.outMassOf(i, 1)
}

// outsideFloor returns G^m, a lower bound on h^m(u) for every unvisited u,
// from the solved level m−1: a walk that starts outside S needs at least one
// step to enter it, and enters through δS, so h^m(u) ≥ 1 + min_{i∈δS}
// h^{m−1}(i) ≥ 1 + min_{i∈δS} lb^{m−1}(i) (a walk that stays outside for m
// steps scores m, which is no smaller). q counts while it is on the boundary
// (lb(q) = 0), G^0 = 0, and with no live boundary G^m = m, though no row
// then has outside mass to value. The scan walks the incremental boundary
// list — O(|δS|), not O(|S|).
//
// The hop floor min(m, D+1) this replaced is subsumed: by induction
// lb^m(i) ≥ min(m, dist_S(i), D+2), hence G^m ≥ min(m, D+1).
func (e *thtEngine) outsideFloor(m int) float64 {
	if m == 0 {
		return 0
	}
	lbPrev := e.lbL[m-1]
	best := float64(m - 1) // lb^{m−1} ≤ m−1 everywhere
	for _, i := range e.bList {
		if e.outCnt[i] > 0 && lbPrev[i] < best {
			best = lbPrev[i]
		}
	}
	return 1 + best
}

// solve drains the per-level dirty queues in level order, recomputing
// both bounds for each dirty row and propagating changes to the dependents
// one level up.
func (e *thtEngine) solve() {
	for l := 1; l <= e.L; l++ {
		// Outside mass of the level-l equation sits at level l−1, which is
		// final by now: level l reads nothing above l−1.
		fl := e.outsideFloor(l - 1)
		if fl != e.floorL[l-1] {
			e.floorL[l-1] = fl
			for _, i := range e.bList {
				if e.outCnt[i] > 0 && i != 0 && !e.inQ[l][i] { // local index 0 is the query
					e.inQ[l][i] = true
					e.queue[l] = append(e.queue[l], i)
				}
			}
		}
		q := e.queue[l]
		lbPrev, ubPrev := e.lbL[l-1], e.ubL[l-1]
		lbCur, ubCur := e.lbL[l], e.ubL[l]
		for len(q) > 0 {
			i := q[len(q)-1]
			q = q[:len(q)-1]
			e.inQ[l][i] = false
			e.sweeps++
			var sLo, sHi float64
			for _, en := range e.rows[i] {
				sLo += en.p * lbPrev[en.j]
				sHi += en.p * ubPrev[en.j]
			}
			om, out := 0.0, fl
			if e.outCnt[i] > 0 {
				om = e.outMass(i)
			} else if e.deg[i] == 0 {
				om, out = 1, float64(l-1) // the walk goes nowhere: h^l = l
			}
			lo := 1 + sLo + om*out
			hi := 1 + sHi + om*float64(l-1)
			if cap := float64(l); hi > cap {
				hi = cap
			}
			if lo > hi {
				lo = hi // both remain valid; keeps the interval well-formed
			}
			if lo == lbCur[i] && hi == ubCur[i] {
				continue
			}
			lbCur[i] = lo
			ubCur[i] = hi
			if l < e.L {
				nq := e.queue[l+1]
				for _, en := range e.rows[i] {
					if j := en.j; !e.inQ[l+1][j] && j != 0 { // local index 0 is the query
						e.inQ[l+1][j] = true
						nq = append(nq, j)
					}
				}
				e.queue[l+1] = nq
			}
		}
		e.queue[l] = q[:0]
	}
}

// lb and ub expose the horizon-L bounds.
func (e *thtEngine) lb(i int32) float64 { return e.lbL[e.L][i] }
func (e *thtEngine) ub(i int32) float64 { return e.ubL[e.L][i] }

// The driver-facing steps of the THT engine (see engine in search.go). It
// certifies one key scale, so kind is ignored, and it has no dummy update:
// the upper-bound dummy of level l is pinned at l−1.

func (e *thtEngine) beginIteration() {}

// keys views the horizon-L bounds negated and swapped, since lower is
// closer: upper bounds are the certified side. When nothing competes the
// rest reads L+1, above every bound. The hop distances add the closure to
// the pick (see closeHops).
func (e *thtEngine) keys(measure.Kind) keyView {
	return keyView{
		s: &e.localSearch, lo: e.ubL[e.L], hi: e.lbL[e.L], stride: 1, sign: -1,
		none: -float64(e.L + 1), dummy: float64(e.L - 1), dist: e.dist,
	}
}

// outside is −Inf: every unvisited node's hitting time is at least the
// boundary floor min_{δS} lb (no local minimum), which the boundary's own
// keys already carry.
func (e *thtEngine) outside(measure.Kind) float64 { return math.Inf(-1) }

// result builds the hop-scale Result. THT bounds are native (lower-is-closer
// hop counts), so scores and intervals need no scale conversion, and THT
// probes no outside degrees and uses no guard, so its read footprint is
// exactly the visited set.
func (e *thtEngine) result(opt Options, g *goal, out outcome) *Result {
	res := newResult(&e.localSearch, opt, out)
	bounds := make([]NodeBounds, 0, len(g.sel))
	for _, i := range g.sel {
		res.TopK = append(res.TopK, measure.Ranked{Node: e.nodes[i], Score: (e.lb(i) + e.ub(i)) / 2})
		bounds = append(bounds, NodeBounds{Node: e.nodes[i], Lower: e.lb(i), Upper: e.ub(i)})
	}
	res.Certification = certification(opt, g, bounds)
	return res
}
