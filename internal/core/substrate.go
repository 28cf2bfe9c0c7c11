package core

import (
	"flos/internal/graph"
)

// This file is the shared local-search substrate both bound engines build
// on: the visited-set bookkeeping FLoS's Algorithm 3 grows one expansion at
// a time, kept incremental so an iteration's work tracks the changed region
// (Section 5.5), not |S|:
//
//   - an explicit boundary list, maintained on visit: a node enters δS when
//     it is visited with unvisited neighbors and leaves exactly once, when
//     its last outside neighbor is pulled in. Both transitions are monotone,
//     so the list is append-only with lazy deletion (liveness is just
//     outCnt > 0) and compaction amortizes removal to O(1). Iterating it
//     costs O(|δS|) in ascending local index, the order every consumer's
//     schedule (dummy update, floor scan, worklist re-seeding, hop closure)
//     is pinned to; the expansion pick selects under a total order and does
//     not depend on it.
//   - an append-only interior list and O(1) interior/boundary counters.
//   - a bounded top-k selection helper (offer) that keeps the candidate
//     buffer in the order a full sort would give (key descending, then
//     smaller global identifier), so the stopping rule and the forced
//     selection never sort all of S.
//
// localSearch also owns S's local transition matrix (rows), the one set of
// entries both engines' bound systems share; each engine supplies its own
// bound values, boundary treatment and solver on top.
type localSearch struct {
	g graph.Graph
	q graph.NodeID

	// stable records that g advertises graph.StableNeighbors, so adjN/adjW
	// below alias the graph's own slices instead of copying per visit.
	stable bool

	nodes []graph.NodeID // local -> global
	local nodeIndex      // global -> local

	adjN [][]graph.NodeID // cached global adjacency of visited nodes
	adjW [][]float64

	deg    []float64 // full-graph weighted degree
	inW    []float64 // Σ weights of incident edges whose far end is in S
	outCnt []int32   // # neighbors outside S; >0 ⇔ boundary

	// rows is S's local transition matrix, the one both engines solve
	// over: rows[i] holds (j, w_ij/deg_i) for each visited neighbor j, in
	// the order the edges joined S (parallel edges once per edge). The
	// query's row stays empty (walks stop at q). Every other row's columns
	// are also the rows that read i, so the solvers take their dependents
	// from it too.
	rows [][]entry

	// Incremental frontier bookkeeping. bList holds every node that ever
	// joined the boundary, in ascending local index (nodes join only at
	// visit time, with the largest index so far, so appends keep it
	// sorted); an entry is live iff outCnt > 0. bLive is the live count
	// |δS| (including q while q has unvisited neighbors). iList holds the
	// interior candidates S \ δS \ {q} in join order; interior membership
	// is monotone (outCnt never grows), so it is append-only and
	// len(iList) is the candidate count.
	bList []int32
	bLive int
	iList []int32

	// visitL is parallel to the adjacency row of the node visitCommon
	// last pulled in: the local index of each entry's far end as it stood
	// before the node joined, or -1 if it was unvisited — the one index
	// lookup each entry costs, kept for the engine's pass over the row.
	visitL []int32

	// Scratch reused across iterations (and, warm, across queries): the
	// expansion/termination scans would otherwise allocate per iteration.
	pickBuf  []scored
	pickOut  []int32
	candBuf  []scored
	incBuf   []scored // the stopping rule's incumbent selection, rescored
	selOut   []int32
	selOut2  []int32 // second selection buffer: unified search keeps two live
	inSel    []bool  // local-index marks; always cleared after use
	addedBuf []graph.NodeID

	sweeps int // node relaxations performed by the bound solver
}

// entry is one off-diagonal entry of the local transition matrix: p = p_ij
// toward local node j.
type entry struct {
	j int32
	p float64
}

// resetCommon prepares the substrate for a new query, reusing all retained
// storage and clearing the global→local index with a generation bump.
func (s *localSearch) resetCommon(g graph.Graph, q graph.NodeID) {
	s.g, s.q = g, q

	stable := graph.HasStableNeighbors(g)
	if s.stable && !stable {
		// The previous run aliased graph-owned adjacency rows; drop them so
		// the copy path below never appends into another graph's storage.
		s.adjN, s.adjW = nil, nil
	}
	s.stable = stable

	s.local.init(g.NumNodes())

	s.nodes = s.nodes[:0]
	s.adjN = s.adjN[:0]
	s.adjW = s.adjW[:0]
	s.deg = s.deg[:0]
	s.inW = s.inW[:0]
	s.outCnt = s.outCnt[:0]
	s.rows = s.rows[:0]
	s.bList = s.bList[:0]
	s.bLive = 0
	s.iList = s.iList[:0]
	s.sweeps = 0
}

// usedBytes counts the substrate's slices for Workspace.UsedBytes: the
// index is left out, and so are adjacency rows that alias the graph's own
// storage.
func (s *localSearch) usedBytes() int {
	n := bytesOf(s.nodes) + bytesOf(s.adjN) + bytesOf(s.adjW) +
		bytesOf(s.deg) + bytesOf(s.inW) + bytesOf(s.outCnt) + rowBytes(s.rows) +
		bytesOf(s.bList) + bytesOf(s.iList) + bytesOf(s.visitL) +
		bytesOf(s.pickBuf) + bytesOf(s.pickOut) + bytesOf(s.candBuf) + bytesOf(s.incBuf) +
		bytesOf(s.selOut) + bytesOf(s.selOut2) + bytesOf(s.inSel) + bytesOf(s.addedBuf)
	if !s.stable {
		n += rowBytes(s.adjN) - bytesOf(s.adjN) + rowBytes(s.adjW) - bytesOf(s.adjW)
	}
	return n
}

// visitCommon pulls node v into S: queries its adjacency, computes the
// degree split, wires v's transition entries in both directions, and
// maintains the boundary/interior bookkeeping. The engine's own pass runs
// afterwards over visitL. Precondition: v not yet visited.
func (s *localSearch) visitCommon(v graph.NodeID) int32 {
	li := int32(len(s.nodes))
	s.nodes = append(s.nodes, v)
	s.local.put(v, li)

	nbrs, ws := s.g.Neighbors(v)
	if s.stable {
		// The graph guarantees slice stability; alias instead of copying.
		s.adjN = append(s.adjN, nbrs)
		s.adjW = append(s.adjW, ws)
	} else {
		// Copy: disk-backed graphs reuse the returned slices.
		s.adjN = appendRowCopy(s.adjN, nbrs)
		s.adjW = appendRowCopy(s.adjW, ws)
	}
	cn, cw := s.adjN[li], s.adjW[li]

	// First pass: the full degree (needed to normalize v's own transition
	// probabilities) and the in/out split.
	var d, in float64
	var out int32
	s.visitL = s.visitL[:0]
	for i, u := range cn {
		d += cw[i]
		lu, ok := s.local.get(u)
		if ok {
			in += cw[i]
		} else {
			lu = -1
			out++
		}
		s.visitL = append(s.visitL, lu)
	}
	s.deg = append(s.deg, d)
	s.inW = append(s.inW, in)
	s.outCnt = append(s.outCnt, out)
	s.rows = appendRow(s.rows)
	if out > 0 {
		s.bList = append(s.bList, li)
		s.bLive++
	} else if v != s.q {
		s.iList = append(s.iList, li)
	}

	// Second pass: the transition entries to and from already-visited
	// neighbors (none out of q's row), and their boundary bookkeeping. A
	// self-loop is one entry of v's row, and the first pass already counted
	// its weight inside S.
	for i, lu := range s.visitL {
		if lu < 0 {
			continue
		}
		if v != s.q {
			s.rows[li] = append(s.rows[li], entry{lu, cw[i] / d})
		}
		if lu == li {
			continue
		}
		if s.nodes[lu] != s.q {
			s.rows[lu] = append(s.rows[lu], entry{li, cw[i] / s.deg[lu]})
		}
		s.inW[lu] += cw[i]
		s.outCnt[lu]--
		if s.outCnt[lu] == 0 {
			// lu's last outside neighbor was v: it leaves δS for good.
			s.bLive--
			if s.nodes[lu] != s.q {
				s.iList = append(s.iList, lu)
			}
		}
	}
	s.compactBoundary()
	return li
}

// compactBoundary drops dead entries once they outnumber the live ones, so
// boundary iteration stays O(|δS|) amortized. Compaction preserves the
// ascending-index order, keeping every boundary scan's schedule identical
// to the full scans it replaced.
func (s *localSearch) compactBoundary() {
	if len(s.bList)-s.bLive <= s.bLive+32 {
		return
	}
	live := s.bList[:0]
	for _, i := range s.bList {
		if s.outCnt[i] > 0 {
			live = append(live, i)
		}
	}
	s.bList = live
}

// size returns |S|.
func (s *localSearch) size() int { return len(s.nodes) }

// boundaryCount returns |δS| in O(1).
func (s *localSearch) boundaryCount() int { return s.bLive }

// interiorCount returns |S \ δS \ {q}| in O(1).
func (s *localSearch) interiorCount() int { return len(s.iList) }

// outMassOf returns Σ_{j∉S} p_ij for local node i, with zeroDegree as the
// convention for isolated nodes (the engines differ: PHP treats a degree-0
// node as keeping its walk, THT as sending full mass outside).
func (s *localSearch) outMassOf(i int32, zeroDegree float64) float64 {
	if s.deg[i] == 0 {
		return zeroDegree
	}
	m := (s.deg[i] - s.inW[i]) / s.deg[i]
	if m < 0 {
		return 0
	}
	return m
}

// precedes is the driver's strict selection order: key descending (keys
// are oriented so higher is closer, see keyView), ties toward the smaller
// global identifier.
func (s *localSearch) precedes(a, b scored) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return s.nodes[a.i] < s.nodes[b.i]
}

// offer feeds one candidate into a k-bounded selection buffer kept sorted
// under precedes — the exact order a full sort of every candidate would
// give. Because the skip test compares under the full total order, the
// resulting top-k is independent of offer order.
func (s *localSearch) offer(best []scored, k int, i int32, key float64) []scored {
	c := scored{i, key}
	if len(best) == k && !s.precedes(c, best[k-1]) {
		return best
	}
	pos := len(best)
	for pos > 0 && s.precedes(c, best[pos-1]) {
		pos--
	}
	if len(best) < k {
		best = append(best, scored{})
	}
	copy(best[pos+1:], best[pos:len(best)-1])
	best[pos] = c
	return best
}

// takeFrontier is the expansion pick once it has scored the live boundary
// into cands: the best-first prefix under precedes — always the
// first node — whose opened frontier edges, Σ outCnt, reach budget, as local
// indices in engine scratch valid until the next pick; nil when cands is
// empty (component exhausted). The first node comes from one scan, which is
// the whole pick wherever a single expansion fills the budget (Algorithm 3's
// schedule, and most steps on a high-degree graph); the rest from a heap over
// the remainder, O(|δS| + b log |δS|) for b nodes taken — O(|δS| + b log b),
// since b log |δS| only exceeds |δS| once log b is within a factor two of
// log |δS|. cands is consumed.
//
// Algorithm 3 expands one node per iteration; taking more only changes the
// expansion schedule, never the exactness argument — every expansion is
// still a legal S^{t-1} → S^t step.
func (s *localSearch) takeFrontier(cands []scored, budget int) []int32 {
	if len(cands) == 0 {
		return nil
	}
	best := 0
	for j := 1; j < len(cands); j++ {
		if s.precedes(cands[j], cands[best]) {
			best = j
		}
	}
	out := append(s.pickOut[:0], cands[best].i)
	opened := int(s.outCnt[cands[best].i])
	s.pickOut = out
	if opened >= budget {
		return out
	}
	cands[best] = cands[len(cands)-1]
	cands = cands[:len(cands)-1]
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(cands) {
				return
			}
			if c+1 < len(cands) && s.precedes(cands[c+1], cands[c]) {
				c++
			}
			if !s.precedes(cands[c], cands[i]) {
				return
			}
			cands[i], cands[c] = cands[c], cands[i]
			i = c
		}
	}
	for i := len(cands)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(cands) > 0 && opened < budget {
		out = append(out, cands[0].i)
		opened += int(s.outCnt[cands[0].i])
		cands[0] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
		siftDown(0)
	}
	s.pickOut = out
	return out
}

// markSel ensures the inSel scratch covers the current size and marks the
// selected entries; clearSel undoes the marks. The scratch is only ever
// dirty between the two calls, so reuse across iterations and queries needs
// no bulk clearing.
func (s *localSearch) markSel(sel []scored) {
	if cap(s.inSel) < s.size() {
		s.inSel = make([]bool, s.size())
	}
	s.inSel = s.inSel[:cap(s.inSel)]
	for _, c := range sel {
		s.inSel[c.i] = true
	}
}

func (s *localSearch) clearSel(sel []scored) {
	for _, c := range sel {
		s.inSel[c.i] = false
	}
}

// postExpandHook, when non-nil, is invoked by the search driver right after
// an expansion step with the active engine (*phpEngine or *thtEngine). It
// exists for differential tests that cross-check the incremental frontier
// bookkeeping against brute-force recomputation after every expansion; it
// must never be set outside tests.
var postExpandHook func(engine any)

// wsbarGuard serves the RWR termination guard w(S̄) — the largest weighted
// degree among unvisited nodes — from the graph's degree index. Visited
// status is monotone within a query, so a persistent cursor never re-scans
// the visited prefix: the whole guard amortizes to one pass over the cached
// prefix per query instead of one pass per iteration. Falling back to the
// global maximum when the whole prefix is visited keeps the bound valid,
// just looser — identical to the seed's behavior.
type wsbarGuard struct {
	top []graph.DegreeEntry
	cur int
}

func newWSbarGuard(g graph.Graph) wsbarGuard {
	return wsbarGuard{top: g.TopDegrees(4096)}
}

func (w *wsbarGuard) value(s *localSearch) float64 {
	for w.cur < len(w.top) && s.local.has(w.top[w.cur].Node) {
		w.cur++
	}
	if w.cur < len(w.top) {
		return w.top[w.cur].Degree
	}
	if len(w.top) > 0 {
		return w.top[0].Degree
	}
	return 0
}
