package core

import (
	"context"
	"fmt"
	"time"

	"flos/internal/graph"
	"flos/internal/measure"
)

// engine is one bound family as the search driver sees it: the steps of one
// iteration of the paper's expand → bound → certify loop (Algorithms 1–3, 6).
// There are exactly two, *phpEngine (PHP, EI, DHT, RWR and the unified
// search) and *thtEngine, both over the substrate's one local transition
// matrix. Every method is called once per phase, or once per visited node
// (visit), never per relaxation, so each engine's solver loop stays
// monomorphic. kind is the goal's measure (see goal); the THT engine serves
// one and ignores it.
type engine interface {
	substrate() *localSearch
	// beginIteration runs what must see the previous boundary δS^{t-1}.
	beginIteration()
	// pick returns the boundary nodes to expand, best first under kind's
	// expansion priority until the frontier edges they open reach budget;
	// empty means the component is exhausted.
	pick(kind measure.Kind, budget int) []int32
	// visit pulls one unvisited node into S (see expand).
	visit(v graph.NodeID)
	// solve re-solves both bound systems over the grown S.
	solve()
	// check runs the stopping rule for one ranking: the certified top-k
	// appended to dst, or nil, and the test's observables either way.
	check(kind measure.Kind, dst []int32, k int, slack float64) ([]int32, certGap)
	// forceSelect is the best-effort top-k by the safe-side bound,
	// regardless of separation.
	forceSelect(kind measure.Kind, dst []int32, k int) []int32
	// bounds and dummy are the trace observables.
	bounds(i int32) (lb, ub float64)
	dummy() float64
}

// goal is one ranking the search must certify. A single-measure query has
// one; the unified search has two over the same engine and visited set.
type goal struct {
	// kind is the measure ranked. It fixes the certification-key scale: PHP
	// bounds as they are for PHP, EI and DHT (Theorem 2), weighted by degree
	// for RWR (Theorem 6), and THT's own, where lower is closer and the bound
	// roles mirror.
	kind measure.Kind
	buf  *[]int32 // the substrate buffer sel lives in, kept across queries
	// sel is nil until the stopping rule passes or a selection is forced;
	// iter is the iteration that happened at, certified which of the two.
	sel       []int32
	iter      int
	certified bool
	gap       certGap // observables of this goal's latest stopping test
}

func (g *goal) settle(sel []int32, iter int, certified bool) {
	g.sel, *g.buf, g.iter, g.certified = sel, sel, iter, certified
}

// substrate is promoted to both engines, which embed localSearch.
func (s *localSearch) substrate() *localSearch { return s }

// outcome is how a search ended. interrupted is non-nil when the context
// fired outside anytime mode; the caller attaches the partial result built
// from the goals and returns it as the error.
type outcome struct {
	iters       int
	exact       bool
	interrupted *Interrupted
}

// pin is the prologue every query shares. A live backend gets one immutable
// snapshot pinned for the whole search, so concurrent mutation batches
// cannot tear the topology mid-query; release must run when the query ends.
func pin(g graph.Graph, q graph.NodeID, opt Options) (graph.Graph, func(), error) {
	release := func() {}
	if snapper, ok := g.(graph.Snapshotter); ok {
		g, release = snapper.AcquireSnapshot()
	}
	err := opt.Validate()
	if err == nil && (q < 0 || int(q) >= g.NumNodes()) {
		err = fmt.Errorf("%w: query node %d outside [0,%d)", ErrInvalidQuery, q, g.NumNodes())
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return g, release, nil
}

// search is the FLoS main loop, written once for every family: it drives e
// until each goal holds a selection and reports how the search ended. The
// stopping rule, the solver and the expansion priority are the engine's; the
// schedule, the exits and the trace are decided here.
func search(ctx context.Context, e engine, opt Options, goals []goal) outcome {
	s := e.substrate()
	// The selections stay live simultaneously across iterations, so each
	// goal gets its own substrate buffer.
	goals[0].buf = &s.selOut
	if len(goals) > 1 {
		goals[1].buf = &s.selOut2
	}
	// Termination slack: TieEps, widened to ε (in the goal's key scale) in
	// ModeEpsilon. The engines compare against one number either way, so
	// ModeExact runs the same code path as a build without serving modes.
	slack := opt.TieEps
	if opt.Mode == ModeEpsilon {
		slack = max(slack, opt.Epsilon)
	}

	tracing := opt.Tracer != nil
	snapObs, _ := opt.Tracer.(SnapshotObserver)
	var phaseAt time.Time
	// lap returns the wall time since the previous lap: the phase timers
	// of a traced run, and no clock read at all in an untraced one.
	lap := func() int64 {
		if !tracing {
			return 0
		}
		prev := phaseAt
		phaseAt = time.Now()
		return phaseAt.Sub(prev).Nanoseconds()
	}

	for t := 1; ; t++ {
		if err := ctx.Err(); err != nil {
			// Each goal keeps what it had certified; an open one gets a
			// best-effort selection with the observables of its last test.
			// Anytime mode returns that as the answer, the other modes as
			// the partial of an *Interrupted.
			forceOpen(e, goals, opt.K, t-1, false)
			out := outcome{iters: t - 1}
			if opt.Mode != ModeAnytime {
				out.interrupted = interrupted(err, s.size(), t-1, s.sweeps)
			}
			return out
		}
		e.beginIteration()

		// Frontier budget: a step is sized by the frontier edges it opens
		// (Σ outCnt of the nodes it expands), not by how many nodes it
		// expands, so it adds at most |S|/16 edges plus one neighborhood
		// whether expansions are rich or, in a saturating search, open less
		// than one new node each. Below |S| = 32 that is Algorithm 3's single
		// node (see takeFrontier for why any step keeps the answer exact).
		// Clamped to the room left under MaxVisited, so the cap is overshot
		// by one neighborhood at any size. Traced and untraced runs share
		// this one schedule.
		budget := max(1, s.size()/16)
		if opt.MaxVisited > 0 {
			budget = max(1, min(budget, opt.MaxVisited-s.size()))
		}
		// Alternate the expansion priority between the goals so neither
		// criterion starves; once one is certified, drive the other.
		lead := &goals[(t-1)%len(goals)]
		if lead.sel != nil {
			lead = &goals[t%len(goals)]
		}
		lap()
		us := e.pick(lead.kind, budget)
		exhausted := len(us) == 0
		added := s.addedBuf[:0]
		for _, u := range us {
			added = expand(e, u, added)
		}
		s.addedBuf = added
		if postExpandHook != nil {
			postExpandHook(e)
		}
		expandNS := lap()

		e.solve()
		solveNS := lap()

		// The trace follows the first goal still open — PHP before RWR in
		// a unified search — so the gap trajectory always describes the
		// binding stopping condition.
		var traced *goal
		done := true
		for i := range goals {
			g := &goals[i]
			if g.sel != nil {
				continue
			}
			if traced == nil {
				traced = g
			}
			var sel []int32
			if sel, g.gap = e.check(g.kind, *g.buf, opt.K, slack); sel != nil {
				g.settle(sel, t, true)
			} else {
				done = false
			}
		}
		certifyNS := lap()

		if snapObs != nil {
			snapObs.ObserveSnapshot(traceSnapshot(e, t, us, added))
		}
		if tracing {
			opt.Tracer.ObserveIteration(iterStats(e, t, len(us), len(added), done, traced, expandNS, solveNS, certifyNS))
		}

		// Exhausted without bound separation (ties beyond TieEps, or k
		// larger than the component): the local system now IS the component
		// with no dummy mass, so lb≈ub≈exact and a forced selection is as
		// good as a certified one. At the MaxVisited safety valve it is
		// neither, but a goal that certified before the cap keeps its proof.
		capped := opt.MaxVisited > 0 && s.size() >= opt.MaxVisited
		if !done && !exhausted && !capped {
			continue
		}
		forceOpen(e, goals, opt.K, t, exhausted)
		out := outcome{iters: t, exact: done || exhausted}
		if opt.Mode == ModeEpsilon {
			// An ε-certified stop that still had separating work left is
			// certified but not exact: the ranking may differ from the
			// exact answer by up to ε in the goal's key scale.
			for i := range goals {
				if g := &goals[i]; g.gap.valid && measure.CertGap(g.kind, g.gap.kth, g.gap.rest) > opt.TieEps {
					out.exact = false
				}
			}
		}
		return out
	}
}

// expand visits every unvisited neighbor of local node u, appending the
// newly visited global identifiers to added (Algorithm 3 line 2).
func expand(e engine, u int32, added []graph.NodeID) []graph.NodeID {
	s := e.substrate()
	for _, v := range s.adjN[u] {
		if !s.local.has(v) {
			e.visit(v)
			added = append(added, v)
		}
	}
	return added
}

// forceOpen gives every goal without a selection a forced one.
func forceOpen(e engine, goals []goal, k, iter int, certified bool) {
	for i := range goals {
		if g := &goals[i]; g.sel == nil {
			g.settle(e.forceSelect(g.kind, *g.buf, k), iter, certified)
		}
	}
}

// bestBy is the engines' forceSelect: every visited node but q (local 0)
// offered by key, and the best k under precedes — key descending, or
// ascending when asc, ties toward the smaller global identifier — appended
// to dst best first.
func (s *localSearch) bestBy(dst []int32, k int, asc bool, key func(i int32) float64) []int32 {
	best := s.candBuf[:0]
	for i := int32(1); i < int32(s.size()); i++ {
		best = s.offer(best, k, i, key(i), asc)
	}
	s.candBuf = best
	out := dst[:0]
	for _, c := range best {
		out = append(out, c.i)
	}
	return out
}

// certification builds one goal's proof block: the mode, whether the
// stopping rule passed and at which iteration, the final termination
// observables in the goal's gap orientation, and the caller's per-node
// intervals for the returned ranking.
func certification(opt Options, g *goal, bounds []NodeBounds) Certification {
	return Certification{
		Mode:       opt.Mode,
		Certified:  g.certified,
		Epsilon:    opt.Epsilon,
		GapValid:   g.gap.valid,
		KthBound:   g.gap.kth,
		RestBound:  g.gap.rest,
		Gap:        measure.CertGap(g.kind, g.gap.kth, g.gap.rest),
		Iterations: g.iter,
		Bounds:     bounds,
	}
}

// newResult fills the part of a Result every family shares: the work
// counters and, under CaptureFootprint, the visited set.
func newResult(s *localSearch, opt Options, out outcome) *Result {
	res := &Result{
		Visited:    s.size(),
		Iterations: out.iters,
		Sweeps:     s.sweeps,
		Exact:      out.exact,
	}
	if opt.CaptureFootprint {
		res.VisitedNodes = append([]graph.NodeID(nil), s.nodes...)
	}
	return res
}

// iterStats assembles one IterStats record from the engine state right
// after an iteration's stopping tests; g is the goal the trace follows. Gap
// is oriented so it is non-negative (within TieEps) exactly when certified:
// kth lower-bound key minus best competing upper-bound key for the
// higher-is-closer scales, the mirror image for THT. The boundary and
// interior sizes come from the substrate's O(1) counters.
func iterStats(e engine, t, batch, added int, certified bool, g *goal, expandNS, solveNS, certifyNS int64) IterStats {
	s := e.substrate()
	st := IterStats{
		Iteration:  t,
		Visited:    s.size(),
		Boundary:   s.boundaryCount(),
		Interior:   s.interiorCount(),
		Batch:      batch,
		NewNodes:   added,
		GapValid:   g.gap.valid,
		KthBound:   g.gap.kth,
		RestBound:  g.gap.rest,
		Gap:        g.gap.kth - g.gap.rest,
		Certified:  certified,
		DummyValue: e.dummy(),
		ExpandNS:   expandNS,
		SolveNS:    solveNS,
		CertifyNS:  certifyNS,
	}
	if g.kind == measure.THT {
		st.Gap = g.gap.rest - g.gap.kth
	}
	return st
}

func traceSnapshot(e engine, t int, us []int32, added []graph.NodeID) TraceEvent {
	s := e.substrate()
	ev := TraceEvent{
		Iteration:  t,
		Expanded:   -1,
		NewNodes:   append([]graph.NodeID(nil), added...),
		Nodes:      append([]graph.NodeID(nil), s.nodes...),
		Lower:      make([]float64, s.size()),
		Upper:      make([]float64, s.size()),
		DummyValue: e.dummy(),
	}
	if len(us) > 0 {
		ev.Expanded = s.nodes[us[0]]
	}
	for i := range ev.Lower {
		ev.Lower[i], ev.Upper[i] = e.bounds(int32(i))
	}
	return ev
}
