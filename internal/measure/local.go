package measure

import (
	"fmt"
	"math"

	"flos/internal/graph"
)

// LocalProof is what CheckLocal derived for one answer: PHP-scale bounds on
// the visited set, the dummy value bounding every unvisited node, and the
// separation it tested, all in the measure's certification-key scale.
type LocalProof struct {
	// Lower and Upper bound the PHP (at the measure's equivalent decay) of
	// each visited node, parallel to the visited list CheckLocal was given.
	Lower, Upper []float64
	// Rd bounds the PHP of every unvisited node.
	Rd float64
	// Kth is the answer's smallest certified key, Rest the largest
	// competing key, the unvisited region's included.
	Kth, Rest float64
}

// CheckLocal re-proves a FLoS answer from the graph and the answer's visited
// set alone, sharing no code with the engine that produced it. It rebuilds
// S's transition rows from g and solves, by Jacobi iteration, the lower
// system lb (every edge leaving S deleted) and the r_d-sensitivity system b
// (every edge leaving S sent to a dummy of value 1), so the upper system's
// fixpoint for a dummy value r is lb + r·b. Each solve's truncation error is
// at most c/(1−c) times its last step, and the bounds are widened by that.
//
// The dummy value is the shell bound at its fixpoint: for a shell node u
// (unvisited, with an edge into S) of degree d_u, weight W_u into S and
// ub-weighted sums A_u (from lb) and B_u (from b),
//
//	r_u = c·A_u / ((1−c)·d_u + c·W_u − c·B_u),
//
// and Rd = max over u of r_u bounds the largest unvisited PHP M: if M were
// larger, the shell node attaining it would satisfy M ≤ r_u < M.
//
// The answer top is certified when its smallest lower key clears, within
// slack, every other visited node's upper key and the unvisited region's:
// Rd for PHP, EI and DHT, and w(S̄)·Rd for RWR (Section 5.6's guard, w(S̄)
// the largest unvisited degree). THT is not a PHP-family measure and is
// refused. The cost is O(|S|·degree·sweeps), with no global solve.
func CheckLocal(g graph.Graph, q graph.NodeID, kind Kind, p Params, visited, top []graph.NodeID, slack float64) (LocalProof, error) {
	var pf LocalProof
	pp, err := EquivalentPHPParams(kind, p)
	if err != nil {
		return pf, err
	}
	c, n := pp.C, len(visited)
	local := make(map[graph.NodeID]int, len(visited))
	for i, v := range visited {
		if _, dup := local[v]; dup {
			return pf, fmt.Errorf("measure: node %d visited twice", v)
		}
		local[v] = i
	}
	qi, ok := local[q]
	if !ok {
		return pf, fmt.Errorf("measure: query %d not in the visited set", q)
	}

	// S's rows: p_ij = w_ij/d_i toward visited j, the rest of the row
	// leaves S. The query's row stays empty: walks stop there.
	type entry struct {
		j int
		p float64
	}
	rows := make([][]entry, n)
	out := make([]float64, n)
	deg := make([]float64, n)
	for i, v := range visited {
		deg[i] = g.Degree(v)
		if i == qi || deg[i] == 0 {
			continue
		}
		nbrs, ws := g.Neighbors(v)
		for k, u := range nbrs {
			if j, in := local[u]; in {
				rows[i] = append(rows[i], entry{j, ws[k] / deg[i]})
			} else {
				out[i] += ws[k] / deg[i]
			}
		}
	}

	// solve iterates x_i ← c·(Σ_j p_ij·x_j + src_i), x_q = fix, and returns
	// x with its truncation margin c/(1−c)·‖last step‖∞.
	solve := func(src []float64, fix float64) ([]float64, float64) {
		x, next := make([]float64, n), make([]float64, n)
		x[qi] = fix
		step := math.Inf(1)
		for sweep := 0; sweep < 100000 && step > 1e-15; sweep++ {
			step = 0
			for i := range rows {
				if i == qi {
					next[i] = fix
					continue
				}
				s := src[i]
				for _, e := range rows[i] {
					s += e.p * x[e.j]
				}
				next[i] = c * s
				step = max(step, math.Abs(next[i]-x[i]))
			}
			x, next = next, x
		}
		return x, c / (1 - c) * step
	}
	lb, mlb := solve(make([]float64, n), 1)
	b, mb := solve(out, 0)

	// The shell bound, from the high ends of lb and b.
	type shellSums struct{ w, a, b float64 }
	shell := map[graph.NodeID]*shellSums{}
	for i, v := range visited {
		nbrs, ws := g.Neighbors(v)
		for k, u := range nbrs {
			if _, in := local[u]; in {
				continue
			}
			sh := shell[u]
			if sh == nil {
				sh = &shellSums{}
				shell[u] = sh
			}
			sh.w += ws[k]
			sh.a += ws[k] * (lb[i] + mlb)
			sh.b += ws[k] * (b[i] + mb)
		}
	}
	for u, sh := range shell {
		d := g.Degree(u)
		den := (1-c)*d + c*math.Min(sh.w, d) - c*sh.b
		if den <= 0 {
			return pf, fmt.Errorf("measure: shell node %d bounds nothing", u)
		}
		pf.Rd = max(pf.Rd, c*sh.a/den)
	}

	pf.Lower, pf.Upper = make([]float64, n), make([]float64, n)
	for i := range visited {
		pf.Lower[i], pf.Upper[i] = max(0, lb[i]-mlb), lb[i]+mlb+pf.Rd*(b[i]+mb)
	}
	pf.Lower[qi], pf.Upper[qi] = 1, 1

	key := func(i int, x float64) float64 {
		if kind == RWR {
			return deg[i] * x
		}
		return x
	}
	inTop := make(map[int]bool, len(top))
	pf.Kth = math.Inf(1)
	for _, v := range top {
		i, in := local[v]
		if !in || i == qi || inTop[i] {
			return pf, fmt.Errorf("measure: answer node %d is unvisited, the query or repeated", v)
		}
		inTop[i] = true
		pf.Kth = math.Min(pf.Kth, key(i, pf.Lower[i]))
	}
	pf.Rest = math.Inf(-1)
	if len(shell) > 0 {
		pf.Rest = pf.Rd
		if kind == RWR {
			pf.Rest = unvisitedMaxDegree(g, local) * pf.Rd
		}
	}
	for i := range visited {
		if i != qi && !inTop[i] {
			pf.Rest = max(pf.Rest, key(i, pf.Upper[i]))
		}
	}
	if len(top) > 0 && pf.Kth < pf.Rest-slack {
		return pf, fmt.Errorf("measure: answer not separated: k-th key %g, competing key %g, slack %g", pf.Kth, pf.Rest, slack)
	}
	return pf, nil
}

// unvisitedMaxDegree returns w(S̄), the largest degree outside the visited
// set, from the degree index and, past its cached prefix, a scan.
func unvisitedMaxDegree(g graph.Graph, visited map[graph.NodeID]int) float64 {
	top := g.TopDegrees(len(visited) + 1)
	for _, e := range top {
		if _, in := visited[e.Node]; !in {
			return e.Degree
		}
	}
	w := 0.0
	for v := range graph.NodeID(g.NumNodes()) {
		if _, in := visited[v]; !in {
			w = max(w, g.Degree(v))
		}
	}
	return w
}
