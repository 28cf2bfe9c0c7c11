package core

import (
	"context"
	"fmt"
	"time"

	"flos/internal/graph"
	"flos/internal/measure"
)

// engine is one bound family as the search driver sees it: the steps of one
// iteration of the paper's expand → bound → certify loop (Algorithms 2–3),
// and the keys the driver's one stopping rule (Algorithm 6), expansion pick
// and forced selection read. There are exactly two, *phpEngine (PHP, EI,
// DHT, RWR and the unified search) and *thtEngine, both over the
// substrate's one local transition matrix. Every method is called once per
// phase, or once per visited node (visit), never per relaxation, so each
// engine's solver loop stays monomorphic. kind is the goal's measure (see
// goal); the THT engine serves one and ignores it.
type engine interface {
	substrate() *localSearch
	// beginIteration runs what must see the previous boundary δS^{t-1}.
	beginIteration()
	// visit pulls one unvisited node into S (see expand).
	visit(v graph.NodeID)
	// solve re-solves both bound systems over the grown S.
	solve()
	// keys is kind's view of the current bounds; it is valid until the
	// next visit.
	keys(kind measure.Kind) keyView
	// outside is the unvisited region's competing key for kind's stopping
	// test, −Inf when the boundary's own keys cover it. It is read once per
	// test, before the test can exit early.
	outside(kind measure.Kind) float64
}

// keyView is one goal's bounds as the driver's selection routines read
// them, oriented so that higher is closer: lo is the certified side, hi the
// competing side. PHP, EI and DHT keys are the PHP bounds (Theorem 2), RWR
// keys the PHP bounds times degree (Theorem 6), and THT keys its hop bounds
// negated and swapped, since lower is closer there. Negation is exact in
// floating point and ties still go to the smaller global identifier, so one
// descending selection serves all five measures bit for bit.
type keyView struct {
	s *localSearch
	// lo and hi hold the certified- and competing-side bounds in the
	// measure's own scale, local node i's at [stride*i].
	lo, hi []float64
	stride int
	sign   float64   // +1, or −1 when lower is closer
	deg    []float64 // per-node key weight; nil for none
	none   float64   // the competing key when nothing competes
	dummy  float64   // the dummy-node value, a trace observable
	dist   []int32   // within-S hop distance from q: non-nil adds closeHops to pick
}

// key orients one native bound of local node i.
func (v *keyView) key(i int32, x float64) float64 {
	if v.deg != nil {
		x *= v.deg[i]
	}
	return v.sign * x
}

func (v *keyView) loKey(i int32) float64 { return v.key(i, v.lo[v.stride*int(i)]) }
func (v *keyView) hiKey(i int32) float64 { return v.key(i, v.hi[v.stride*int(i)]) }

// goal is one ranking the search must certify. A single-measure query has
// one; the unified search has two over the same engine and visited set.
type goal struct {
	// kind is the measure ranked; it picks the engine's key view.
	kind measure.Kind
	buf  *[]int32 // the substrate buffer sel lives in, kept across queries
	// *buf holds the selection the goal's latest stopping test chose, the
	// next test's incumbent (see check). sel is nil until the stopping rule
	// passes or a selection is forced; iter is the iteration that happened
	// at, certified which of the two.
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
// solver and the keys are the engine's; the schedule, the expansion pick,
// the stopping rule, the exits and the trace are decided here.
func search(ctx context.Context, e engine, opt Options, goals []goal) outcome {
	s := e.substrate()
	// The selections stay live simultaneously across iterations, so each
	// goal gets its own substrate buffer.
	goals[0].buf = &s.selOut
	if len(goals) > 1 {
		goals[1].buf = &s.selOut2
	}
	for i := range goals {
		*goals[i].buf = (*goals[i].buf)[:0] // no incumbent yet
	}
	// Termination slack: TieEps, widened to ε (in the goal's key scale) in
	// ModeEpsilon. The engines compare against one number either way, so
	// ModeExact runs the same code path as a build without serving modes.
	slack := TieEps
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

	// The deadline is also read off the clock: a context's timer fires on a
	// scheduler tick, which can come only after the search ends while every
	// P runs one.
	deadline, hasDeadline := ctx.Deadline()
	for t := 1; ; t++ {
		err := ctx.Err()
		if err == nil && hasDeadline && !time.Now().Before(deadline) {
			err = context.DeadlineExceeded
		}
		if err != nil {
			// Each goal keeps what it had certified; an open one gets a
			// best-effort selection with the observables of its last test.
			// Anytime mode returns that as the answer, the other modes as
			// the partial of an *Interrupted.
			forceOpen(e, goals, opt.K, t-1, false)
			out := outcome{iters: t - 1}
			if opt.Mode != ModeAnytime {
				out.interrupted = interrupted(err)
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
		us := pick(e.keys(lead.kind), budget)
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
			sel, gap, ok := check(e.keys(g.kind), e.outside(g.kind), *g.buf, *g.buf, opt.K, slack)
			if sel != nil {
				*g.buf = sel
			}
			if g.gap = gap; ok {
				g.settle(sel, t, true)
			} else {
				done = false
			}
		}
		certifyNS := lap()

		if snapObs != nil {
			snapObs.ObserveSnapshot(traceSnapshot(e.keys(traced.kind), t, us, added))
		}
		if tracing {
			opt.Tracer.ObserveIteration(iterStats(e.keys(traced.kind), t, len(us), len(added), done, traced, expandNS, solveNS, certifyNS))
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
				if g := &goals[i]; g.gap.valid && measure.CertGap(g.kind, g.gap.kth, g.gap.rest) > TieEps {
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
			g.settle(forceSelect(e.keys(g.kind), *g.buf, k), iter, certified)
		}
	}
}

// pick returns the live boundary nodes to expand, best first by the
// expansion priority ½(lb+ub), oriented (Section 5.6 weights it by degree
// for RWR), until the frontier edges they open reach budget (see
// takeFrontier), followed by the hop closure when v carries hop distances;
// empty means the component is exhausted. The result lives in substrate
// scratch valid until the next pick.
func pick(v keyView, budget int) []int32 {
	s := v.s
	cands := s.pickBuf[:0]
	for _, i := range s.bList {
		if s.outCnt[i] > 0 {
			mid := (v.lo[v.stride*int(i)] + v.hi[v.stride*int(i)]) / 2
			cands = append(cands, scored{i, v.key(i, mid)})
		}
	}
	s.pickBuf = cands
	us := s.takeFrontier(cands, budget)
	if v.dist != nil && us != nil {
		us = s.closeHops(v.dist, us)
		s.pickOut = us // keep the backing array the closers grew
	}
	return us
}

// closeHops appends to the best-first pick us every live boundary node at
// the minimum hop distance that is not in it already. Pure best-first
// expansion chases small hitting-time values and can leave a low-hop hub
// unexpanded for many iterations, and THT's boundary floor
// (thtEngine.outsideFloor) is a minimum over δS: one loose low-hop node
// holds it, and every far lower bound, down. Mixing in this hop closure is
// the THT analogue of GRANCH's hop-by-hop schedule; without it the search
// visits fewer nodes over several times the iterations. The scans walk the
// boundary list in ascending local index, so the closers follow us in that
// order.
func (s *localSearch) closeHops(dist []int32, us []int32) []int32 {
	minD := distInf
	for _, i := range s.bList {
		if s.outCnt[i] > 0 && dist[i] < minD {
			minD = dist[i]
		}
	}
	if minD == distInf {
		return us
	}
	s.markSel(nil) // sizes the scratch
	for _, u := range us {
		s.inSel[u] = true
	}
	picked := len(us)
	for _, i := range s.bList {
		if s.outCnt[i] > 0 && dist[i] == minD && !s.inSel[i] {
			us = append(us, i)
		}
	}
	for _, u := range us[:picked] {
		s.inSel[u] = false
	}
	return us
}

// certGap records the observables of one termination test in the measure's
// own scale: the k-th candidate's certified-side bound key and the best
// competing bound key it must clear. check fills it only once the test gets
// far enough to compare bounds (valid); until then it is the zero value,
// which traces and certificates report as it stands.
type certGap struct {
	valid bool
	kth   float64 // certified-side bound key of the k-th selected candidate
	rest  float64 // best competing bound key over everything else
}

// check is the stopping rule, Algorithm 6 with Section 5.6's RWR guard, for
// one ranking: a selection of k interior candidates is the exact top-k once
// its k-th certified key clears, within slack, every competing key — each
// other visited node's, and outside, the unvisited region's. The selection
// is the k candidates with the highest certified keys, unless the
// incumbent, the selection the goal's previous test chose, has a gap no
// larger: then the incumbent stays. Either is a valid proof; the hysteresis
// is what keeps a goal's gap from growing when a candidate overtakes the
// k-th on its lower bound while the one it displaces still has an upper
// bound above the previous rest (DESIGN.md §5). With fewer than k
// candidates it waits for more, unless the boundary is exhausted: the
// component then has fewer than k+1 nodes and all of them are returned.
//
// It returns the chosen selection's local indices best first, written to
// dst, which may alias incumbent (nil while the test cannot compare
// bounds), the test's observables, and whether the selection is certified.
// The candidate selection walks the incremental interior list through a
// k-bounded buffer ordered under the same total order a full sort would
// use, so no O(|S| log |S|) re-sort happens; the competing-key scan splits
// into one pass over the interior list and one over the boundary list, and
// runs a second time only when the incumbent differs from the new
// selection.
func check(v keyView, outside float64, incumbent, dst []int32, k int, slack float64) ([]int32, certGap, bool) {
	s := v.s
	nCand := len(s.iList)
	if nCand < k && s.bLive > 0 {
		return nil, certGap{}, false
	}
	k = min(k, nCand)
	if k == 0 {
		if dst != nil {
			return dst[:0], certGap{}, true
		}
		return []int32{}, certGap{}, true
	}
	sel := s.candBuf[:0]
	for _, i := range s.iList {
		sel = s.offer(sel, k, i, v.loKey(i))
	}
	s.candBuf = sel
	kth, rest := sel[k-1].key, max(outside, s.competing(v, sel))
	if len(incumbent) == k && !s.holds(sel, incumbent) {
		inc := s.incBuf[:0]
		for _, i := range incumbent {
			inc = s.offer(inc, k, i, v.loKey(i))
		}
		s.incBuf = inc
		if r := max(outside, s.competing(v, inc)); r-inc[k-1].key <= rest-kth {
			sel, kth, rest = inc, inc[k-1].key, r
		}
	}
	out := dst[:0]
	for _, c := range sel {
		out = append(out, c.i)
	}
	return out, certGap{valid: true, kth: v.sign * kth, rest: v.sign * rest}, kth >= rest-slack
}

// competing returns the best competing key over the visited nodes outside
// sel: the interior candidates not in it and the live boundary.
func (s *localSearch) competing(v keyView, sel []scored) float64 {
	s.markSel(sel)
	rest := v.none
	for _, i := range s.iList {
		if s.inSel[i] {
			continue
		}
		if key := v.hiKey(i); key > rest {
			rest = key
		}
	}
	for _, i := range s.bList {
		if s.outCnt[i] <= 0 {
			continue
		}
		if key := v.hiKey(i); key > rest {
			rest = key
		}
	}
	s.clearSel(sel)
	return rest
}

// holds reports that every node of set is in sel.
func (s *localSearch) holds(sel []scored, set []int32) bool {
	s.markSel(sel)
	all := true
	for _, i := range set {
		all = all && s.inSel[i]
	}
	s.clearSel(sel)
	return all
}

// forceSelect is the best-effort top-k by the certified-side key regardless
// of separation — at exhaustion, at the MaxVisited safety valve and at an
// interruption: every visited node but q (local 0) offered, the best k
// appended to dst best first.
func forceSelect(v keyView, dst []int32, k int) []int32 {
	s := v.s
	best := s.candBuf[:0]
	for i := int32(1); i < int32(s.size()); i++ {
		best = s.offer(best, k, i, v.loKey(i))
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
// after an iteration's stopping tests; g is the goal the trace follows and v
// its keys. Gap is oriented so it is non-negative (within TieEps) exactly
// when certified: kth minus rest for the higher-is-closer scales, rest minus
// kth for THT. The boundary and interior sizes come from the substrate's
// O(1) counters.
func iterStats(v keyView, t, batch, added int, certified bool, g *goal, expandNS, solveNS, certifyNS int64) IterStats {
	s := v.s
	gap := g.gap.kth - g.gap.rest
	if v.sign < 0 {
		gap = g.gap.rest - g.gap.kth // not −(kth − rest), which is −0 at a tie
	}
	return IterStats{
		Iteration:  t,
		Visited:    s.size(),
		Boundary:   s.boundaryCount(),
		Interior:   s.interiorCount(),
		Batch:      batch,
		NewNodes:   added,
		GapValid:   g.gap.valid,
		KthBound:   g.gap.kth,
		RestBound:  g.gap.rest,
		Gap:        gap,
		Certified:  certified,
		DummyValue: v.dummy,
		ExpandNS:   expandNS,
		SolveNS:    solveNS,
		CertifyNS:  certifyNS,
	}
}

func traceSnapshot(v keyView, t int, us []int32, added []graph.NodeID) TraceEvent {
	s := v.s
	ev := TraceEvent{
		Iteration:  t,
		Expanded:   -1,
		NewNodes:   append([]graph.NodeID(nil), added...),
		Nodes:      append([]graph.NodeID(nil), s.nodes...),
		Lower:      make([]float64, s.size()),
		Upper:      make([]float64, s.size()),
		DummyValue: v.dummy,
	}
	if len(us) > 0 {
		ev.Expanded = s.nodes[us[0]]
	}
	// Native bounds: lo and hi swap back when lower is closer.
	lo, hi := ev.Lower, ev.Upper
	if v.sign < 0 {
		lo, hi = hi, lo
	}
	for i := range lo {
		lo[i], hi[i] = v.lo[v.stride*i], v.hi[v.stride*i]
	}
	return ev
}
