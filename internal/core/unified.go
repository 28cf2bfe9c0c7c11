package core

import (
	"context"
	"fmt"
	"time"

	"flos/internal/graph"
	"flos/internal/measure"
)

// UnifiedResult is the answer to a multi-measure query: one local search,
// two certified rankings.
type UnifiedResult struct {
	// PHPFamily is the exact top-k under PHP — and, by Theorem 2, under EI
	// and DHT as well (identical node sets; scores are in the PHP scale).
	PHPFamily []measure.Ranked
	// RWR is the exact top-k under random walk with restart (scores are the
	// unnormalized w_i·PHP(i) of Theorem 6).
	RWR []measure.Ranked
	// Work counters, as in Result.
	Visited      int
	Iterations   int
	Sweeps       int
	DegreeProbes int
	Exact        bool

	// PHPCert and RWRCert are the per-family certification blocks: each
	// family certifies (or fails to) independently, so an interrupted
	// anytime query can return one certified ranking and one best-effort
	// one. Bound keys and intervals are in each family's certification-key
	// scale: PHP-scale proximity for PHPFamily, degree-weighted PHP for RWR.
	PHPCert Certification
	RWRCert Certification

	// Read footprint, populated only under Options.CaptureFootprint; see
	// Result for field semantics. A unified query always certifies an RWR
	// ranking, so GuardDegree is meaningful whenever the guard was consulted.
	VisitedNodes []graph.NodeID
	ProbedNodes  []graph.NodeID
	GuardDegree  float64
}

// UnifiedTopK answers both ranking families — PHP/EI/DHT and RWR — with a
// single expanding search and one pair of bound systems. This is the payoff
// of the paper's unification: because every measure rides on the same PHP
// bounds (Theorems 2 and 6), certifying two rankings costs one search whose
// visited set is the union of what the two separate searches would touch,
// with all bound computation shared.
//
// opt.Measure is ignored; opt.Params.C is the PHP decay factor (equivalently
// 1 − restart probability for EI/RWR). Expansion alternates between the
// PHP-family and RWR priorities so neither criterion starves.
//
// UnifiedTopK is a thin wrapper over UnifiedTopKCtx with a background
// context; repeated callers should hold a Querier and use Querier.Unified.
func UnifiedTopK(g graph.Graph, q graph.NodeID, opt Options) (*UnifiedResult, error) {
	return UnifiedTopKCtx(context.Background(), g, q, opt)
}

// UnifiedTopKCtx is UnifiedTopK with cancellation, on the same contract as
// TopKCtx: ctx is checked every local expansion and an *Interrupted
// (wrapping ErrCanceled or ErrDeadline) is returned as soon as it fires.
func UnifiedTopKCtx(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options) (*UnifiedResult, error) {
	return unifiedIn(ctx, g, q, opt, nil)
}

// unifiedIn is the unified main loop; ws supplies a reusable engine
// workspace (nil runs cold).
func unifiedIn(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options, ws *Workspace) (*UnifiedResult, error) {
	if snapper, ok := g.(graph.Snapshotter); ok {
		// Live backend: pin one immutable snapshot for the whole search (see
		// topKIn).
		snap, release := snapper.AcquireSnapshot()
		defer release()
		g = snap
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if q < 0 || int(q) >= g.NumNodes() {
		return nil, fmt.Errorf("%w: query node %d outside [0,%d)", ErrInvalidQuery, q, g.NumNodes())
	}
	e := ws.phpFor(g, q, opt.Params.C, opt.Params.Tau, opt.Params.MaxIter, opt.Tighten)
	e.capProbes = opt.CaptureFootprint
	// Warm-start seeding, as in phpFamilyTopK.
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
	// w(S̄) guard for the RWR family, cursor-based as in phpFamilyTopK.
	wSbar := newWSbarGuard(g)

	slack := opt.slack()
	tracing := opt.Tracer != nil
	var phaseAt time.Time
	// The two selections stay live simultaneously across iterations, so
	// each gets its own engine buffer. Each family keeps its latest
	// termination observables (and the iteration it certified at) so the
	// final result can report both proofs.
	var selPHP, selRWR []int32
	var gPHP, gRWR certGap
	var phpIter, rwrIter int
	for t := 1; ; t++ {
		if err := ctx.Err(); err != nil {
			return unifiedInterrupted(e, opt, t-1, selPHP, selRWR, gPHP, gRWR, phpIter, rwrIter, err)
		}
		e.updateDummy()

		batch := e.size() / 256
		if batch < 1 {
			batch = 1
		}
		// Alternate priorities; once one family is certified, drive the
		// other exclusively.
		rwrPriority := t%2 == 0
		if selPHP != nil {
			rwrPriority = true
		}
		if selRWR != nil {
			rwrPriority = false
		}
		var expandNS, solveNS, certifyNS int64
		if tracing {
			phaseAt = time.Now()
		}
		sizeBefore := e.size()
		us := e.pickExpansion(rwrPriority, batch)
		exhausted := len(us) == 0
		added := e.addedBuf[:0]
		for _, u := range us {
			added = e.expand(u, added)
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

		// The trace follows whichever family is still uncertified — PHP
		// first, then RWR — so the gap trajectory always describes the
		// binding stopping condition.
		var itGap *certGap
		if selPHP == nil {
			gPHP = certGap{}
			itGap = &gPHP
			selPHP = e.checkTermination(e.selOut, opt.K, false, 0, slack, &gPHP)
			if selPHP != nil {
				e.selOut = selPHP
				phpIter = t
			}
		}
		if selRWR == nil {
			gRWR = certGap{}
			if itGap == nil {
				itGap = &gRWR
			}
			guard := wSbar.value(&e.localSearch)
			e.degreeProbes++
			e.lastGuard = guard
			selRWR = e.checkTermination(e.selOut2, opt.K, true, guard, slack, &gRWR)
			if selRWR != nil {
				e.selOut2 = selRWR
				rwrIter = t
			}
		}
		if tracing {
			certifyNS = time.Since(phaseAt).Nanoseconds()
		}

		done := selPHP != nil && selRWR != nil
		if tracing {
			opt.Tracer.ObserveIteration(iterStats(e, t, len(us), e.size()-sizeBefore,
				done, itGap, expandNS, solveNS, certifyNS))
		}
		exact := true
		phpCertified, rwrCertified := selPHP != nil, selRWR != nil
		if !done && exhausted {
			// Component exhausted: the local system is the whole component,
			// so force-picked rankings are exact too (see phpFamilyTopK).
			if selPHP == nil {
				selPHP = e.forceSelect(e.selOut, opt.K, false)
				e.selOut = selPHP
				phpIter = t
			}
			if selRWR == nil {
				selRWR = e.forceSelect(e.selOut2, opt.K, true)
				e.selOut2 = selRWR
				rwrIter = t
			}
			done, phpCertified, rwrCertified = true, true, true
		}
		if !done && e.size() >= maxVisited && opt.MaxVisited > 0 {
			// The safety valve: a family that certified before the cap keeps
			// its proof; the force-picked one reports Certified=false.
			if selPHP == nil {
				selPHP = e.forceSelect(e.selOut, opt.K, false)
				e.selOut = selPHP
				phpIter = t
			}
			if selRWR == nil {
				selRWR = e.forceSelect(e.selOut2, opt.K, true)
				e.selOut2 = selRWR
				rwrIter = t
			}
			done, exact = true, false
		}
		if done {
			return unifiedResult(e, opt, t, selPHP, selRWR, gPHP, gRWR, phpIter, rwrIter, exact, phpCertified, rwrCertified), nil
		}
	}
}

// unifiedResult assembles both rankings with their per-family proofs.
func unifiedResult(e *phpEngine, opt Options, iters int, selPHP, selRWR []int32, gPHP, gRWR certGap, phpIter, rwrIter int, exact, phpCertified, rwrCertified bool) *UnifiedResult {
	if exact && opt.Mode == ModeEpsilon {
		// An ε-stop that left separating work undone is certified-to-ε, not
		// exact, in whichever family still had a positive residual.
		if (gPHP.valid && measure.CertGap(measure.PHP, gPHP.kth, gPHP.rest) > opt.TieEps) ||
			(gRWR.valid && measure.CertGap(measure.RWR, gRWR.kth, gRWR.rest) > opt.TieEps) {
			exact = false
		}
	}
	out := &UnifiedResult{
		Visited:      e.size(),
		Iterations:   iters,
		Sweeps:       e.sweeps,
		DegreeProbes: e.degreeProbes,
		Exact:        exact,
	}
	if opt.CaptureFootprint {
		out.VisitedNodes = append([]graph.NodeID(nil), e.nodes...)
		out.ProbedNodes = append([]graph.NodeID(nil), e.probed...)
		out.GuardDegree = e.lastGuard
	}
	for _, i := range selPHP {
		out.PHPFamily = append(out.PHPFamily, measure.Ranked{
			Node:  e.nodes[i],
			Score: (e.lbAt(i) + e.ubAt(i)) / 2,
		})
	}
	for _, i := range selRWR {
		out.RWR = append(out.RWR, measure.Ranked{
			Node:  e.nodes[i],
			Score: e.deg[i] * (e.lbAt(i) + e.ubAt(i)) / 2,
		})
	}
	out.PHPCert = unifiedCert(e, opt, selPHP, false, gPHP, phpIter, phpCertified)
	out.RWRCert = unifiedCert(e, opt, selRWR, true, gRWR, rwrIter, rwrCertified)
	return out
}

// unifiedCert builds one family's certification block. Bound intervals are
// reported in the family's certification-key scale (PHP proximity, or
// degree-weighted PHP for rwrMode), matching the family's displayed scores.
func unifiedCert(e *phpEngine, opt Options, sel []int32, rwrMode bool, gap certGap, iter int, certified bool) Certification {
	kind := measure.PHP
	if rwrMode {
		kind = measure.RWR
	}
	c := Certification{
		Mode:       opt.Mode,
		Certified:  certified,
		Epsilon:    opt.Epsilon,
		Iterations: iter,
	}
	if gap.valid {
		c.GapValid = true
		c.KthBound = gap.kth
		c.RestBound = gap.rest
		c.Gap = measure.CertGap(kind, gap.kth, gap.rest)
	}
	for _, i := range sel {
		lo, hi := e.lbAt(i), e.ubAt(i)
		if rwrMode {
			lo *= e.deg[i]
			hi *= e.deg[i]
		}
		c.Bounds = append(c.Bounds, NodeBounds{Node: e.nodes[i], Lower: lo, Upper: hi})
	}
	return c
}

// unifiedInterrupted handles a context interruption mid-search: each family
// keeps whatever it had certified; an uncertified family gets a force-picked
// best-effort ranking. Anytime mode returns the partial as the answer;
// other modes attach it to the *Interrupted error.
func unifiedInterrupted(e *phpEngine, opt Options, iters int, selPHP, selRWR []int32, gPHP, gRWR certGap, phpIter, rwrIter int, cause error) (*UnifiedResult, error) {
	phpCertified, rwrCertified := selPHP != nil, selRWR != nil
	if selPHP == nil {
		selPHP = e.forceSelect(e.selOut, opt.K, false)
		e.selOut = selPHP
		phpIter = iters
	}
	if selRWR == nil {
		selRWR = e.forceSelect(e.selOut2, opt.K, true)
		e.selOut2 = selRWR
		rwrIter = iters
	}
	partial := unifiedResult(e, opt, iters, selPHP, selRWR, gPHP, gRWR, phpIter, rwrIter, false, phpCertified, rwrCertified)
	if opt.Mode == ModeAnytime {
		return partial, nil
	}
	in := interrupted(cause, e.size(), iters, e.sweeps)
	in.PartialUnified = partial
	return nil, in
}
