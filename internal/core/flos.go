package core

import (
	"context"
	"sort"
	"time"

	"flos/internal/graph"
	"flos/internal/measure"
)

// TopK answers an exact k-nearest-neighbor proximity query with FLoS
// (Algorithm 2). It only touches the graph through Neighbors/Degree/
// TopDegrees, so it runs identically on in-memory and disk-resident graphs.
//
// PHP is bounded natively; EI, DHT and RWR ride on the PHP engine through
// Theorems 2 and 6; THT uses the finite-horizon engine. The returned set is
// exact (up to Options.TieEps at score ties) unless MaxVisited fired.
//
// TopK is a thin wrapper over TopKCtx with a background context; it builds
// all engine state from scratch per call. Callers issuing more than one
// query should hold a Querier, whose pooled workspaces amortize that setup
// and make the hot path allocation-light.
func TopK(g graph.Graph, q graph.NodeID, opt Options) (*Result, error) {
	return TopKCtx(context.Background(), g, q, opt)
}

// phpFamilyTopK is the FLoS main loop for the PHP-bounded measures
// (PHP/EI/DHT/RWR). ws supplies a reusable engine workspace; nil runs cold.
func phpFamilyTopK(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options, ws *Workspace) (*Result, error) {
	phpParams, err := measure.EquivalentPHPParams(opt.Measure, opt.Params)
	if err != nil {
		return nil, err
	}
	rwrMode := opt.Measure == measure.RWR
	e := ws.phpFor(g, q, phpParams.C, phpParams.Tau, phpParams.MaxIter, opt.Tighten)
	e.capProbes = opt.CaptureFootprint
	// Warm-start seeding: pre-visit the supplied nodes before iteration 1.
	// The bound systems are valid for any S containing q, and the first
	// iteration's refreshTightening/solveBounds handle the seeded region like
	// any other expansion, so correctness is untouched — only the trajectory
	// (and hence the work counters) changes.
	for _, v := range opt.WarmStart {
		if v == q || v < 0 || int(v) >= g.NumNodes() || e.local.has(v) {
			continue
		}
		e.visit(v)
	}
	maxVisited := opt.MaxVisited
	if maxVisited == 0 {
		maxVisited = g.NumNodes()
	}

	// w(S̄) guard for RWR: the largest degree among unvisited nodes, served
	// by the graph's degree index through a persistent cursor (visitedness
	// is monotone within a query, so the guard never re-scans the visited
	// prefix).
	wSbar := newWSbarGuard(g)

	// Termination slack: TieEps exact/anytime, widened to ε in ModeEpsilon.
	// ModeExact passes the identical value through the identical code path,
	// so exact-mode runs stay byte-identical to the pre-mode engine.
	slack := opt.slack()

	tracing := opt.Tracer != nil
	snapObs, _ := opt.Tracer.(SnapshotObserver)
	var phaseAt time.Time
	// gap persists across iterations: at an interruption it still holds the
	// previous iteration's termination observables for the partial result.
	var gap certGap
	for t := 1; ; t++ {
		if err := ctx.Err(); err != nil {
			return phpInterrupted(e, opt, rwrMode, t-1, gap, err)
		}
		// Algorithm 5 line 7 evaluates r_d against δS^{t-1} and ub^{t-1};
		// capture it before the expansion mutates the boundary.
		e.updateDummy()

		// Single-node expansion while the search is small; grow the batch
		// with |S| so the expansion schedule stays a vanishing fraction per
		// step. Traced (Trace or Tracer) and untraced runs share this one
		// schedule.
		batch := e.size() / 256
		if batch < 1 {
			batch = 1
		}
		var expandNS, solveNS, certifyNS int64
		if tracing {
			phaseAt = time.Now()
		}
		us := e.pickExpansion(rwrMode, batch)
		added := e.addedBuf[:0]
		var expanded graph.NodeID = -1
		exhausted := len(us) == 0
		if !exhausted {
			expanded = e.nodes[us[0]]
			for _, u := range us {
				added = e.expand(u, added)
			}
		}
		e.addedBuf = added
		if postExpandHook != nil {
			postExpandHook(e)
		}
		if tracing {
			now := time.Now()
			expandNS, phaseAt = now.Sub(phaseAt).Nanoseconds(), now
		}

		e.refreshTightening()
		e.solveBounds()
		if tracing {
			now := time.Now()
			solveNS, phaseAt = now.Sub(phaseAt).Nanoseconds(), now
		}

		guard := 0.0
		if rwrMode {
			guard = wSbar.value(&e.localSearch)
			e.degreeProbes++ // the index scan stands in for one metadata probe
			e.lastGuard = guard
		}
		gap = certGap{}
		sel := e.checkTermination(e.selOut, opt.K, rwrMode, guard, slack, &gap)
		if sel != nil {
			e.selOut = sel
		}
		if tracing {
			certifyNS = time.Since(phaseAt).Nanoseconds()
		}

		if snapObs != nil {
			snapObs.ObserveSnapshot(traceSnapshot(e, t, expanded, added))
		}
		if tracing {
			opt.Tracer.ObserveIteration(iterStats(e, t, len(us), len(added),
				sel != nil, &gap, expandNS, solveNS, certifyNS))
		}

		switch {
		case sel != nil:
			return phpResult(e, sel, opt, t, true, true, gap)
		case exhausted:
			// Component exhausted without bound separation (ties beyond
			// TieEps, or k larger than the component). The local system now
			// IS the component with no dummy mass, so lb≈ub≈exact: return
			// the top-k by lower bound.
			return phpResult(e, e.forceSelect(e.selOut, opt.K, rwrMode), opt, t, true, true, gap)
		case e.size() >= maxVisited && opt.MaxVisited > 0:
			return phpResult(e, e.forceSelect(e.selOut, opt.K, rwrMode), opt, t, false, false, gap)
		}
	}
}

// phpResult builds the measure-scale result and attaches its Certification
// block. exact feeds Result.Exact (modulo mode, see below); certified
// records whether the stopping rule passed.
func phpResult(e *phpEngine, sel []int32, opt Options, iters int, exact, certified bool, gap certGap) (*Result, error) {
	// An ε-certified stop that still had separating work left is certified
	// but not exact: the ranking may differ from the exact answer by up to
	// ε in the certification-key scale.
	if exact && opt.Mode == ModeEpsilon && gap.valid &&
		measure.CertGap(opt.Measure, gap.kth, gap.rest) > opt.TieEps {
		exact = false
	}
	res, err := buildResult(e, sel, opt, iters, exact)
	if err != nil {
		return nil, err
	}
	if err := attachPHPCertification(res, e, sel, opt, iters, gap, certified); err != nil {
		return nil, err
	}
	return res, nil
}

// phpInterrupted handles a context interruption inside the solver loop:
// anytime mode returns the in-flight top-k as an uncertified result; the
// other modes return an *Interrupted that carries the same partial result
// (Interrupted.Partial) for diagnostics instead of dropping it.
func phpInterrupted(e *phpEngine, opt Options, rwrMode bool, iters int, gap certGap, cause error) (*Result, error) {
	sel := e.forceSelect(e.selOut, opt.K, rwrMode)
	partial, err := buildResult(e, sel, opt, iters, false)
	if err != nil {
		return nil, err
	}
	if err := attachPHPCertification(partial, e, sel, opt, iters, gap, false); err != nil {
		return nil, err
	}
	if opt.Mode == ModeAnytime {
		return partial, nil
	}
	in := interrupted(cause, e.size(), iters, e.sweeps)
	in.Partial = partial
	return nil, in
}

// attachPHPCertification fills res.Certification: the mode, the final
// termination observables (converted to the measure's gap orientation), and
// the per-node score intervals for the returned k, listed in ranking order.
func attachPHPCertification(res *Result, e *phpEngine, sel []int32, opt Options, iters int, gap certGap, certified bool) error {
	c := Certification{
		Mode:       opt.Mode,
		Certified:  certified,
		Epsilon:    opt.Epsilon,
		Iterations: iters,
	}
	if gap.valid {
		c.GapValid = true
		c.KthBound = gap.kth
		c.RestBound = gap.rest
		c.Gap = measure.CertGap(opt.Measure, gap.kth, gap.rest)
	}
	type interval struct{ lo, hi float64 }
	iv := make(map[graph.NodeID]interval, len(sel))
	for _, i := range sel {
		lo, hi, err := measure.ScoreBoundsFromPHP(opt.Measure, opt.Params, e.lbAt(i), e.ubAt(i), e.deg[i])
		if err != nil {
			return err
		}
		iv[e.nodes[i]] = interval{lo, hi}
	}
	c.Bounds = make([]NodeBounds, 0, len(res.TopK))
	for _, r := range res.TopK {
		b := iv[r.Node]
		c.Bounds = append(c.Bounds, NodeBounds{Node: r.Node, Lower: b.lo, Upper: b.hi})
	}
	res.Certification = c
	return nil
}

// forceSelect picks the best-k visited nodes by lower bound regardless of
// separation — used at exhaustion and at the MaxVisited safety valve. The
// selection is appended to dst.
func (e *phpEngine) forceSelect(dst []int32, k int, rwrMode bool) []int32 {
	all := e.candBuf[:0]
	for i := int32(0); i < int32(e.size()); i++ {
		if e.nodes[i] == e.q {
			continue
		}
		key := e.lbAt(i)
		if rwrMode {
			key *= e.deg[i]
		}
		all = append(all, scored{i, key})
	}
	e.candBuf = all
	sortScoredDesc(all, e.nodes)
	if k > len(all) {
		k = len(all)
	}
	out := dst[:0]
	for i := 0; i < k; i++ {
		out = append(out, all[i].i)
	}
	return out
}

// buildResult converts selected local indices into measure-scale scores.
func buildResult(e *phpEngine, sel []int32, opt Options, iters int, exact bool) (*Result, error) {
	res := &Result{
		Visited:      e.size(),
		Iterations:   iters,
		Sweeps:       e.sweeps,
		DegreeProbes: e.degreeProbes,
		Exact:        exact,
	}
	if opt.CaptureFootprint {
		res.VisitedNodes = append([]graph.NodeID(nil), e.nodes...)
		res.ProbedNodes = append([]graph.NodeID(nil), e.probed...)
		res.GuardDegree = e.lastGuard
	}
	for _, i := range sel {
		php := (e.lbAt(i) + e.ubAt(i)) / 2
		score, err := measure.ScoreFromPHP(opt.Measure, opt.Params, php, e.deg[i])
		if err != nil {
			return nil, err
		}
		res.TopK = append(res.TopK, measure.Ranked{Node: e.nodes[i], Score: score})
	}
	// Selection ordered by certified lower bounds, but the reported scores
	// are bound midpoints — adjacent near-ties can invert between the two.
	// Present the list ordered by what it shows. The SET is unchanged.
	higher := opt.Measure.HigherIsCloser()
	sort.SliceStable(res.TopK, func(a, b int) bool {
		if res.TopK[a].Score != res.TopK[b].Score {
			if higher {
				return res.TopK[a].Score > res.TopK[b].Score
			}
			return res.TopK[a].Score < res.TopK[b].Score
		}
		return res.TopK[a].Node < res.TopK[b].Node
	})
	return res, nil
}

// iterStats assembles one IterStats record from the engine state right
// after an iteration's termination test. Gap orientation is
// higher-is-closer: kth lower-bound key minus best competing upper-bound
// key, non-negative (within TieEps) exactly when certified.
func iterStats(e *phpEngine, t, batch, added int, certified bool, gap *certGap, expandNS, solveNS, certifyNS int64) IterStats {
	s := IterStats{
		Iteration:  t,
		Visited:    e.size(),
		Boundary:   e.boundaryCount(),
		Interior:   e.interiorCount(),
		Batch:      batch,
		NewNodes:   added,
		Certified:  certified,
		DummyValue: e.rd,
		ExpandNS:   expandNS,
		SolveNS:    solveNS,
		CertifyNS:  certifyNS,
	}
	if gap != nil && gap.valid {
		s.GapValid = true
		s.KthBound = gap.kth
		s.RestBound = gap.rest
		s.Gap = gap.kth - gap.rest
	}
	return s
}

func traceSnapshot(e *phpEngine, t int, expanded graph.NodeID, added []graph.NodeID) TraceEvent {
	lbs := make([]float64, e.size())
	ubs := make([]float64, e.size())
	for i := range lbs {
		lbs[i] = e.bnd[2*i]
		ubs[i] = e.bnd[2*i+1]
	}
	ev := TraceEvent{
		Iteration:  t,
		Expanded:   expanded,
		NewNodes:   append([]graph.NodeID(nil), added...),
		Nodes:      append([]graph.NodeID(nil), e.nodes...),
		Lower:      lbs,
		Upper:      ubs,
		DummyValue: e.rd,
	}
	return ev
}

// BasicTopK is Algorithm 1: the oracle-assisted local search that assumes
// the exact proximity vector r is already known. It exists to demonstrate
// the no-local-optimum machinery (Theorem 1 / Corollary 1) in isolation and
// as the reference expansion order in tests: it visits exactly k nodes
// beyond the query, pulling the closest remaining node from δS̄ at each
// step.
func BasicTopK(g graph.Graph, q graph.NodeID, r []float64, k int, higherIsCloser bool) []graph.NodeID {
	inS := map[graph.NodeID]bool{q: true}
	frontier := map[graph.NodeID]bool{}
	addFrontier := func(v graph.NodeID) {
		nbrs, _ := g.Neighbors(v)
		for _, u := range nbrs {
			if !inS[u] {
				frontier[u] = true
			}
		}
	}
	addFrontier(q)
	var out []graph.NodeID
	for len(out) < k && len(frontier) > 0 {
		best := graph.NodeID(-1)
		for v := range frontier {
			if best < 0 {
				best = v
				continue
			}
			better := r[v] > r[best] || (r[v] == r[best] && v < best)
			if !higherIsCloser {
				better = r[v] < r[best] || (r[v] == r[best] && v < best)
			}
			if better {
				best = v
			}
		}
		delete(frontier, best)
		inS[best] = true
		out = append(out, best)
		addFrontier(best)
	}
	return out
}
