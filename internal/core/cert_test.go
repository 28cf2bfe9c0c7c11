package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"flos/internal/graph"
	"flos/internal/measure"
)

// Serving-mode certification properties, checked on the same deterministic
// golden scenarios the byte-identity suite pins (goldenGraphs x
// goldenQueries x all five measures).

// displaySlack converts an ε budget from the engine's certification-key
// scale into the measure's displayed score scale. PHP/EI display raw PHP
// proximities, RWR's displayed score IS the degree-weighted PHP key, and
// THT hops are native; DHT's Theorem-2 map (1-php)/C stretches by 1/C.
func displaySlack(kind measure.Kind, p measure.Params, eps float64) float64 {
	if kind == measure.DHT {
		return eps / p.C
	}
	return eps
}

// certEps picks a per-measure ε that is meaningful in that measure's
// certification-key scale: fractional proximities for the PHP family,
// fractional hop counts for THT.
func certEps(kind measure.Kind) float64 {
	if kind == measure.THT {
		return 0.05
	}
	return 1e-3
}

// TestExactCertificationWellFormed checks the proof block every exact result
// now carries: certified with at most TieEps residual gap, and per-node
// score intervals that are ordered, parallel to TopK, and contain the
// displayed scores.
func TestExactCertificationWellFormed(t *testing.T) {
	for _, gc := range goldenGraphs(t) {
		for _, kind := range measure.Kinds() {
			for _, q := range goldenQueries(gc.g.NumNodes()) {
				opt := goldenOptions(kind)
				res, err := TopK(gc.g, q, opt)
				if err != nil {
					t.Fatalf("%s/%v/q%d: %v", gc.name, kind, q, err)
				}
				c := res.Certification
				if c.Mode != ModeExact {
					t.Fatalf("%s/%v/q%d: mode %v, want exact", gc.name, kind, q, c.Mode)
				}
				if !c.Certified {
					t.Fatalf("%s/%v/q%d: exact result not certified", gc.name, kind, q)
				}
				if c.Epsilon != 0 {
					t.Fatalf("%s/%v/q%d: exact certification carries epsilon %g", gc.name, kind, q, c.Epsilon)
				}
				if c.Gap < 0 || c.Gap > TieEps {
					t.Fatalf("%s/%v/q%d: exact gap %g outside [0, TieEps=%g]", gc.name, kind, q, c.Gap, TieEps)
				}
				if c.Iterations != res.Iterations {
					t.Fatalf("%s/%v/q%d: certification iterations %d != result iterations %d",
						gc.name, kind, q, c.Iterations, res.Iterations)
				}
				checkBounds(t, fmt.Sprintf("%s/%v/q%d", gc.name, kind, q), res)
			}
		}
	}
}

// checkBounds asserts the Bounds block is parallel to TopK, ordered, and
// contains each displayed score.
func checkBounds(t *testing.T, label string, res *Result) {
	t.Helper()
	c := res.Certification
	if len(c.Bounds) != len(res.TopK) {
		t.Fatalf("%s: %d bounds for %d results", label, len(c.Bounds), len(res.TopK))
	}
	for i, b := range c.Bounds {
		r := res.TopK[i]
		if b.Node != r.Node {
			t.Fatalf("%s: bounds[%d] is node %d, TopK[%d] is node %d", label, i, b.Node, i, r.Node)
		}
		tol := 1e-9 + 1e-9*abs(b.Upper)
		if b.Lower > b.Upper+tol {
			t.Fatalf("%s: node %d interval inverted: [%g, %g]", label, b.Node, b.Lower, b.Upper)
		}
		if r.Score < b.Lower-tol || r.Score > b.Upper+tol {
			t.Fatalf("%s: node %d score %g outside certified interval [%g, %g]",
				label, b.Node, r.Score, b.Lower, b.Upper)
		}
	}
}

// TestCertificationGapMonotone checks the anytime/ε contract's backbone: the
// residual certification gap (oriented so 0 = fully separated) never
// increases from one iteration to the next, for every golden scenario.
//
// For the PHP-family measures this holds unconditionally: the rest side is
// anchored by the monotone dummy value, so fresh nodes join with upper
// bounds no looser than the mass they were carved out of. THT's fresh nodes
// instead enter the rest side with level lower bounds at their loose
// initialization, which the incremental solver only tightens over the next
// sweeps — so THT's instantaneous gap may loosen exactly when the frontier
// grows (the barbell corridor exhibits this), and the monotone guarantee is
// scoped to iterations that visited no new node.
func TestCertificationGapMonotone(t *testing.T) {
	for _, gc := range goldenGraphs(t) {
		for _, kind := range measure.Kinds() {
			for _, q := range goldenQueries(gc.g.NumNodes()) {
				opt := goldenOptions(kind)
				tc := &TraceCollector{}
				opt.Tracer = tc
				if _, err := TopK(gc.g, q, opt); err != nil {
					t.Fatalf("%s/%v/q%d: %v", gc.name, kind, q, err)
				}
				prev := -1.0
				for _, s := range tc.Iters {
					if !s.GapValid {
						continue
					}
					residual := measure.CertGap(kind, s.KthBound, s.RestBound)
					exempt := kind == measure.THT && s.NewNodes > 0
					if prev >= 0 && !exempt {
						tol := 1e-12 + 1e-9*prev
						if residual > prev+tol {
							t.Fatalf("%s/%v/q%d: gap grew at iteration %d: %g -> %g",
								gc.name, kind, q, s.Iteration, prev, residual)
						}
					}
					prev = residual
				}
			}
		}
	}
}

// TestEpsilonModeCertification checks ModeEpsilon against the exact answer on
// every golden scenario: the run is certified with achieved gap <= ε, stops
// no later than exact mode (same expansion schedule, wider slack), and every
// returned node is ε-competitive with the exact top-k — its certified score
// interval reaches within ε (display scale) of the exact k-th score, and
// cannot beat the exact best.
func TestEpsilonModeCertification(t *testing.T) {
	for _, gc := range goldenGraphs(t) {
		for _, kind := range measure.Kinds() {
			eps := certEps(kind)
			for _, q := range goldenQueries(gc.g.NumNodes()) {
				label := fmt.Sprintf("%s/%v/q%d", gc.name, kind, q)
				exOpt := goldenOptions(kind)
				exact, err := TopK(gc.g, q, exOpt)
				if err != nil {
					t.Fatalf("%s: exact: %v", label, err)
				}
				epOpt := exOpt
				epOpt.Mode = ModeEpsilon
				epOpt.Epsilon = eps
				res, err := TopK(gc.g, q, epOpt)
				if err != nil {
					t.Fatalf("%s: epsilon: %v", label, err)
				}

				c := res.Certification
				if c.Mode != ModeEpsilon || c.Epsilon != eps {
					t.Fatalf("%s: certification mode/ε = %v/%g, want epsilon/%g", label, c.Mode, c.Epsilon, eps)
				}
				if !c.Certified {
					t.Fatalf("%s: ε result not certified", label)
				}
				if c.Gap > eps {
					t.Fatalf("%s: achieved gap %g exceeds ε=%g", label, c.Gap, eps)
				}
				if res.Iterations > exact.Iterations {
					t.Fatalf("%s: ε mode ran %d iterations, exact only %d", label, res.Iterations, exact.Iterations)
				}
				checkBounds(t, label, res)

				// ε-competitiveness against the exact score range, in display
				// scale. Higher-is-closer: each returned interval must reach
				// the exact k-th score minus ε, and its lower end cannot
				// exceed the exact best (lb <= true score <= best).
				// Lower-is-closer mirrors both checks.
				best, worst := exact.TopK[0].Score, exact.TopK[len(exact.TopK)-1].Score
				slack := displaySlack(kind, epOpt.Params, eps)
				tol := 1e-6*(abs(best)+abs(worst)) + 1e-9
				for i, b := range c.Bounds {
					if kind.HigherIsCloser() {
						if b.Upper < worst-slack-tol {
							t.Fatalf("%s: node %d ub %g below exact kth score %g - ε(%g)",
								label, b.Node, b.Upper, worst, slack)
						}
						if b.Lower > best+tol {
							t.Fatalf("%s: node %d lb %g above exact best score %g", label, b.Node, b.Lower, best)
						}
					} else {
						if b.Lower > worst+slack+tol {
							t.Fatalf("%s: node %d lb %g above exact kth score %g + ε(%g)",
								label, b.Node, b.Lower, worst, slack)
						}
						if b.Upper < best-tol {
							t.Fatalf("%s: node %d ub %g below exact best score %g", label, b.Node, b.Upper, best)
						}
					}
					_ = i
				}
			}
		}
	}
}

// cancelTracer cancels its context after n observed iterations —
// deterministic mid-search interruption for the anytime tests.
type cancelTracer struct {
	n      int
	cancel context.CancelFunc
	seen   int
}

func (c *cancelTracer) ObserveIteration(IterStats) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

// TestAnytimeModeInterruption checks ModeAnytime's contract on every
// measure: a mid-search cancellation yields a nil error and an uncertified
// result whose certification block is well-formed, while the same
// interruption in exact mode yields an *Interrupted carrying the identical
// partial result. Runs under -race in the normal test sweep.
func TestAnytimeModeInterruption(t *testing.T) {
	g := randomConnected(t, 500, 1000, 2)
	for _, kind := range measure.Kinds() {
		q := graph.NodeID(166)

		// Anytime: cancel after 2 iterations — early enough that no measure's
		// search can have terminated — and expect a 200-shaped result.
		ctx, cancel := context.WithCancel(context.Background())
		opt := goldenOptions(kind)
		opt.Mode = ModeAnytime
		opt.Tracer = &cancelTracer{n: 2, cancel: cancel}
		res, err := TopKCtx(ctx, g, q, opt)
		cancel()
		if err != nil {
			t.Fatalf("%v: anytime interruption returned error: %v", kind, err)
		}
		c := res.Certification
		if c.Mode != ModeAnytime {
			t.Fatalf("%v: mode %v, want anytime", kind, c.Mode)
		}
		if c.Certified {
			t.Fatalf("%v: interrupted anytime result claims certified", kind)
		}
		if res.Exact {
			t.Fatalf("%v: interrupted anytime result claims exact", kind)
		}
		if c.Gap < 0 {
			t.Fatalf("%v: negative residual gap %g", kind, c.Gap)
		}
		if len(res.TopK) == 0 || len(res.TopK) > opt.K {
			t.Fatalf("%v: partial top-k has %d entries (k=%d)", kind, len(res.TopK), opt.K)
		}
		checkBounds(t, kind.String()+"/anytime", res)

		// Exact mode under the same interruption: *Interrupted with the
		// partial attached, not a silent loss.
		ctx2, cancel2 := context.WithCancel(context.Background())
		opt2 := goldenOptions(kind)
		opt2.Tracer = &cancelTracer{n: 2, cancel: cancel2}
		_, err = TopKCtx(ctx2, g, q, opt2)
		cancel2()
		var in *Interrupted
		if !errors.As(err, &in) {
			t.Fatalf("%v: exact interruption returned %v, want *Interrupted", kind, err)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: interruption cause %v, want ErrCanceled", kind, err)
		}
		if in.Partial == nil {
			t.Fatalf("%v: *Interrupted dropped the in-flight partial", kind)
		}
		if in.Partial.Certification.Certified {
			t.Fatalf("%v: partial result claims certified", kind)
		}
		if len(in.Partial.TopK) == 0 {
			t.Fatalf("%v: partial result has no top-k", kind)
		}
	}
}

// TestAnytimeModeDeadline drives the deadline path end to end: a query under
// an expiring context deadline in anytime mode returns a result (possibly
// complete, on fast machines) instead of an error, and the certification
// block reports honestly which it was.
func TestAnytimeModeDeadline(t *testing.T) {
	g := randomConnected(t, 3000, 9000, 9)
	opt := goldenOptions(measure.RWR)
	opt.Mode = ModeAnytime

	// Already-expired deadline: the search must still answer without error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := TopKCtx(ctx, g, 17, opt)
	if err != nil {
		t.Fatalf("expired-context anytime query failed: %v", err)
	}
	if res.Certification.Certified {
		t.Fatalf("expired-context anytime result claims certified")
	}
	if res.Certification.Mode != ModeAnytime {
		t.Fatalf("mode %v, want anytime", res.Certification.Mode)
	}
	checkBounds(t, "anytime/expired", res)

	// Completed anytime run (no interruption): certified exact, same answer
	// as exact mode.
	res2, err := TopKCtx(context.Background(), g, 17, opt)
	if err != nil {
		t.Fatalf("uninterrupted anytime query failed: %v", err)
	}
	if !res2.Certification.Certified || !res2.Exact {
		t.Fatalf("uninterrupted anytime run not certified exact (certified=%v exact=%v)",
			res2.Certification.Certified, res2.Exact)
	}
	exOpt := goldenOptions(measure.RWR)
	exact, err := TopK(g, 17, exOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.TopK) != len(exact.TopK) {
		t.Fatalf("anytime returned %d results, exact %d", len(res2.TopK), len(exact.TopK))
	}
	for i := range exact.TopK {
		if res2.TopK[i].Node != exact.TopK[i].Node {
			t.Fatalf("rank %d: anytime node %d, exact node %d", i, res2.TopK[i].Node, exact.TopK[i].Node)
		}
	}
}
