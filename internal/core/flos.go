package core

import (
	"context"
	"math"
	"sort"

	"flos/internal/graph"
	"flos/internal/measure"
)

// TopK answers an exact k-nearest-neighbor proximity query with FLoS
// (Algorithm 2). It only touches the graph through Neighbors/Degree/
// TopDegrees, so it runs identically on in-memory and disk-resident graphs.
//
// PHP is bounded natively; EI, DHT and RWR ride on the PHP engine through
// Theorems 2 and 6; THT uses the finite-horizon engine. The returned set is
// exact (up to TieEps at score ties) unless MaxVisited fired.
//
// TopK is a thin wrapper over TopKCtx with a background context; it runs in
// a fresh Workspace, building all engine state (including an index sized
// to the graph) per call. Callers issuing more than one query should hold a
// Querier or a Workspace, which amortize that setup and make the hot path
// allocation-light.
func TopK(g graph.Graph, q graph.NodeID, opt Options) (*Result, error) {
	return TopKCtx(context.Background(), g, q, opt)
}

// The driver-facing steps of the PHP engine (see engine in search.go). RWR
// keys are the PHP bounds weighted by degree (Theorem 6, Section 5.6).

// beginIteration lowers the dummy value: Algorithm 5 line 7 evaluates r_d
// against δS^{t-1} and ub^{t-1}, before the expansion mutates the boundary.
func (e *phpEngine) beginIteration() { e.updateDummy() }

// keys views the interleaved bound store as it stands: lower bounds are the
// certified side, upper bounds the competing one.
func (e *phpEngine) keys(kind measure.Kind) keyView {
	v := keyView{s: &e.localSearch, lo: e.bnd, hi: e.bnd[1:], stride: 2, sign: 1, dummy: e.rd}
	if kind == measure.RWR {
		v.deg = e.deg
	}
	return v
}

// outside is the RWR guard of Section 5.6: an unvisited node's key is at
// most w(S̄)·r_d, with w(S̄) read off the degree index (one degree probe per
// read) and r_d ≥ every unvisited PHP. For PHP, EI and DHT the boundary's
// upper bounds already cover S̄ (no local optimum), and with the boundary
// exhausted nothing is unvisited.
func (e *phpEngine) outside(kind measure.Kind) float64 {
	if kind != measure.RWR {
		return math.Inf(-1)
	}
	w := e.wSbar.value(&e.localSearch)
	e.degreeProbes++
	e.lastGuard = w
	if e.bLive == 0 {
		return math.Inf(-1)
	}
	return w * e.rd
}

// ranking converts a goal's selection into its measure's displayed scores —
// the measure map applied to the bound midpoint — and its proof block, with
// each listed node's certified interval in the same scale.
func (e *phpEngine) ranking(opt Options, g *goal, byScore bool) ([]measure.Ranked, Certification, error) {
	ranked := make([]measure.Ranked, 0, len(g.sel))
	for _, i := range g.sel {
		score, err := measure.ScoreFromPHP(g.kind, opt.Params, (e.lbAt(i)+e.ubAt(i))/2, e.deg[i])
		if err != nil {
			return nil, Certification{}, err
		}
		ranked = append(ranked, measure.Ranked{Node: e.nodes[i], Score: score})
	}
	if byScore {
		// The selection is ordered by certified lower bounds, but the
		// reported scores are bound midpoints — adjacent near-ties can
		// invert between the two. Present the list ordered by what it
		// shows. The SET is unchanged.
		higher := g.kind.HigherIsCloser()
		sort.SliceStable(ranked, func(a, b int) bool {
			if ranked[a].Score != ranked[b].Score {
				return (ranked[a].Score > ranked[b].Score) == higher
			}
			return ranked[a].Node < ranked[b].Node
		})
	}
	bounds := make([]NodeBounds, 0, len(ranked))
	for _, r := range ranked {
		i, _ := e.local.get(r.Node)
		lo, hi, err := measure.ScoreBoundsFromPHP(g.kind, opt.Params, e.lbAt(i), e.ubAt(i), e.deg[i])
		if err != nil {
			return nil, Certification{}, err
		}
		bounds = append(bounds, NodeBounds{Node: r.Node, Lower: lo, Upper: hi})
	}
	return ranked, certification(opt, g, bounds), nil
}

// result builds the measure-scale Result of goal g: its ranking listed by
// displayed score, or in selection order when byScore is false.
func (e *phpEngine) result(opt Options, g *goal, out outcome, byScore bool) (*Result, error) {
	res := newResult(&e.localSearch, opt, out)
	res.DegreeProbes = e.degreeProbes
	if opt.CaptureFootprint {
		res.ProbedNodes = e.probedNodes()
		res.GuardDegree = e.lastGuard
	}
	var err error
	res.TopK, res.Certification, err = e.ranking(opt, g, byScore)
	return res, err
}
