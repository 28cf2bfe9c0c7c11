// Package core implements FLoS — Fast Local Search — the paper's
// contribution (Algorithms 2–6): exact top-k proximity queries answered by
// expanding a visited set S around the query node while maintaining lower
// and upper proximity bounds whose validity rests on the no-local-optimum
// property.
//
// The native engine bounds PHP (Sections 4–5). EI, DHT and RWR are served
// through the ranking-equivalence maps of Theorems 2 and 6; THT has its own
// finite-horizon engine mirroring the same structure (appendix 10.4).
package core

import (
	"encoding/json"
	"fmt"
	"math"

	"flos/internal/graph"
	"flos/internal/measure"
)

// Mode selects the serving mode: how much certification a query demands
// before it returns. The zero value is ModeExact, so existing callers keep
// the paper's exact semantics unchanged.
type Mode int

const (
	// ModeExact runs Theorem 1's stopping rule to completion: the returned
	// top-k is certified exact (up to TieEps ties). This is the zero value.
	ModeExact Mode = iota
	// ModeEpsilon stops as soon as the k-th certified bound is within
	// Options.Epsilon of the best competing bound: every returned node's
	// true proximity is within ε (in the engine's certification-key scale)
	// of any node it displaced. The Result's Certification block reports
	// the achieved gap, which is always <= ε.
	ModeEpsilon
	// ModeAnytime behaves like ModeExact until the context deadline fires
	// or the caller cancels; instead of an *Interrupted error it then
	// returns the current best top-k with Certification.Certified=false
	// and the residual gap at interruption time.
	ModeAnytime
)

// String renders the mode the way the HTTP API spells it.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeEpsilon:
		return "epsilon"
	case ModeAnytime:
		return "anytime"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// MarshalJSON renders the mode as its API spelling ("exact", "epsilon",
// "anytime") so Certification blocks read the same in every envelope.
func (m Mode) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.String())
}

// UnmarshalJSON accepts the API spelling (or the empty string, as exact).
func (m *Mode) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMode is the inverse of Mode.String. The empty string parses as
// ModeExact so request schemas can leave the field optional.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "epsilon":
		return ModeEpsilon, nil
	case "anytime":
		return ModeAnytime, nil
	}
	return 0, fmt.Errorf("%w: unknown mode %q (want exact|epsilon|anytime)", ErrInvalidOptions, s)
}

// TieEps relaxes every search's termination inequality: a separating gap
// below TieEps is treated as an exact tie, either side of which is a valid
// top-k answer. The paper's strict criterion (TieEps = 0) never terminates
// on an exact tie before the component is exhausted.
const TieEps = 1e-9

// Options configures a FLoS query.
type Options struct {
	// K is the number of nearest neighbors to return.
	K int
	// Measure selects the proximity measure.
	Measure measure.Kind
	// Params carries decay/restart, THT horizon, and the Algorithm 7
	// tolerance.
	Params measure.Params
	// MaxVisited caps |S| as a safety valve; 0 means no cap. When the cap
	// fires the result carries Exact=false.
	MaxVisited int
	// Mode selects the serving mode (exact, ε-certified, or anytime). The
	// zero value is ModeExact. ModeExact runs are byte-identical to a build
	// without serving modes: the mode only widens the termination slack,
	// and ModeExact's slack is exactly TieEps.
	Mode Mode
	// Epsilon is ModeEpsilon's certified-error budget, in the engine's
	// certification-key scale (PHP-scale proximity for the PHP family,
	// degree-weighted PHP for RWR, hop counts for THT). The search stops as
	// soon as the residual gap is <= max(Epsilon, TieEps). Must be zero in
	// the other modes.
	Epsilon float64
	// CaptureFootprint asks the result to carry the query's read footprint:
	// the visited set in visit order, the unvisited nodes whose Degree was
	// probed (the shell bound), and the w(S̄) guard ceiling.
	// This is what surgical cache invalidation intersects mutation batches
	// against. Off by default — capture allocates two slices per query.
	CaptureFootprint bool
	// Tracer, when non-nil, receives one IterStats per search iteration:
	// visited/boundary/candidate counts, the certification gap (k-th lower
	// bound vs. best outsider upper bound), batch size, and per-phase wall
	// times. The disabled cost is a nil check per iteration; the enabled
	// cost is a handful of timestamp reads — the boundary and interior
	// sizes come from the engines' O(1) incremental counters, so tracing
	// adds no per-iteration scan of the visited set.
	Tracer Tracer
}

// Tracer observes per-iteration search statistics (Options.Tracer).
type Tracer interface {
	ObserveIteration(IterStats)
}

// IterStats is one search iteration's instrumentation record. Bound values
// are in the engine's native key scale: PHP-scale proximities for the PHP
// family, degree-weighted PHP for RWR, hop counts for THT.
type IterStats struct {
	// Iteration is the 1-based expansion count (paper's t).
	Iteration int `json:"iter"`
	// Visited is |S|; Boundary is |δS|; Interior is the candidate count
	// |S \ δS \ {q}| the top-k is selected from.
	Visited  int `json:"visited"`
	Boundary int `json:"boundary"`
	Interior int `json:"interior"`
	// Batch is the number of boundary nodes expanded this iteration;
	// NewNodes how many nodes were first visited as a result.
	Batch    int `json:"batch"`
	NewNodes int `json:"new_nodes"`
	// GapValid reports that the termination test got far enough to compare
	// bounds (k candidates exist). KthBound is then the k-th best
	// candidate's certified-side bound key (lower bound for higher-is-closer
	// measures, upper bound for THT) and RestBound the best competing bound
	// key over every other node, visited or not (upper bounds, including the
	// w(S̄)-guarded unvisited mass in RWR mode; lower bounds for THT).
	GapValid  bool    `json:"gap_valid"`
	KthBound  float64 `json:"kth_bound"`
	RestBound float64 `json:"rest_bound"`
	// Gap is the certification margin, oriented so that Gap >= -TieEps iff
	// the top-k set is certified: KthBound-RestBound for higher-is-closer
	// measures, RestBound-KthBound for THT (Theorem 1's stopping rule).
	Gap float64 `json:"gap"`
	// Certified reports that this iteration's termination test passed — on
	// a completed exact search it is true exactly once, in the final entry.
	Certified bool `json:"certified"`
	// DummyValue is r_d after this iteration (the upper-bound anchor).
	DummyValue float64 `json:"dummy"`
	// Per-phase wall times: graph expansion (I/O + wiring), the bound
	// sweeps (both systems), and the certification test.
	ExpandNS  int64 `json:"expand_ns"`
	SolveNS   int64 `json:"solve_ns"`
	CertifyNS int64 `json:"certify_ns"`
}

// TraceCollector is a Tracer that records the full trajectory in order.
// It is not concurrency-safe; use one per query.
type TraceCollector struct {
	Iters []IterStats
}

// ObserveIteration appends the record.
func (c *TraceCollector) ObserveIteration(s IterStats) { c.Iters = append(c.Iters, s) }

// DefaultOptions mirrors the paper's experimental configuration for the
// given measure: c = 0.5, τ = 1e-5, L = 10.
func DefaultOptions(kind measure.Kind, k int) Options {
	return Options{
		K:       k,
		Measure: kind,
		Params:  measure.DefaultParams(),
	}
}

// Validate rejects malformed options. Every failure wraps
// ErrInvalidOptions, so callers can classify with errors.Is.
func (o Options) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("%w: K=%d must be positive", ErrInvalidOptions, o.K)
	}
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	if o.MaxVisited < 0 {
		return fmt.Errorf("%w: MaxVisited=%d must be non-negative", ErrInvalidOptions, o.MaxVisited)
	}
	switch o.Mode {
	case ModeExact, ModeEpsilon, ModeAnytime:
	default:
		return fmt.Errorf("%w: unknown Mode %d", ErrInvalidOptions, int(o.Mode))
	}
	// Written so that NaN fails: every comparison with NaN is false.
	if !(o.Epsilon >= 0) || math.IsInf(o.Epsilon, 1) {
		return fmt.Errorf("%w: Epsilon=%g must be non-negative and finite", ErrInvalidOptions, o.Epsilon)
	}
	if o.Epsilon > 0 && o.Mode != ModeEpsilon {
		return fmt.Errorf("%w: Epsilon=%g requires ModeEpsilon (mode is %s)", ErrInvalidOptions, o.Epsilon, o.Mode)
	}
	return nil
}

// SnapshotObserver is an optional extension a Tracer can implement to also
// receive the full per-iteration snapshot (TraceEvent): the visited set and
// both bound vectors. Each snapshot copies O(|S|) state, so this is far more
// expensive than plain IterStats observation — it exists for the
// figure-regeneration tooling (Figure 4 / Table 3) and bound-validity tests.
// It replaces the removed Options.Trace callback; snapshotted and plain runs
// share one expansion schedule, so enabling it never changes which nodes are
// visited.
type SnapshotObserver interface {
	Tracer
	ObserveSnapshot(TraceEvent)
}

// SnapshotCollector is a SnapshotObserver that records the full snapshot
// trajectory in order. It is not concurrency-safe; use one per query.
type SnapshotCollector struct {
	Events []TraceEvent
}

// ObserveIteration is a no-op; the collector keeps snapshots only.
func (c *SnapshotCollector) ObserveIteration(IterStats) {}

// ObserveSnapshot appends the snapshot.
func (c *SnapshotCollector) ObserveSnapshot(ev TraceEvent) { c.Events = append(c.Events, ev) }

// TraceEvent is one iteration's snapshot for tracing/visualization,
// delivered to Tracers that implement SnapshotObserver.
type TraceEvent struct {
	// Iteration is the 1-based local-expansion count (paper's t).
	Iteration int
	// Expanded is the boundary node whose neighborhood was just pulled in.
	Expanded graph.NodeID
	// NewNodes lists the nodes first visited this iteration (Table 3).
	NewNodes []graph.NodeID
	// Nodes, Lower, Upper are parallel: the current visited set with its
	// bound values in the engine's PHP scale (Figure 4).
	Nodes []graph.NodeID
	Lower []float64
	Upper []float64
	// DummyValue is r_d after this iteration's update.
	DummyValue float64
}

// Result reports a completed query.
type Result struct {
	// TopK lists the k nearest nodes, closest first, with scores in the
	// requested measure's natural direction. For PHP and DHT the scores are
	// exact up to the solver tolerance; for EI and RWR they are exact up to
	// the query-dependent positive constant Theorems 2/6 leave free (the
	// ranking is unaffected).
	TopK []measure.Ranked
	// Visited is |S|: how many nodes were expanded into, the paper's
	// locality metric (Figures 9 and 13(b)).
	Visited int
	// Iterations counts local expansions (paper's t).
	Iterations int
	// Sweeps counts single-row Gauss–Seidel relaxations across all bound
	// solves: the work the paper's α·β Jacobi sweeps stand for.
	Sweeps int
	// DegreeProbes counts Degree() reads of unvisited nodes: one per shell
	// node the shell bound reads, plus one per RWR w(S̄) guard evaluation.
	DegreeProbes int
	// Exact is false if MaxVisited aborted the search early, if ModeEpsilon
	// stopped on its ε budget before full separation, or if ModeAnytime was
	// interrupted. Certification carries the proof details either way.
	Exact bool
	// Certification is the proof block attached to every completed result:
	// the serving mode, whether the stopping rule passed, the residual gap,
	// and per-node bound intervals for the returned k (see Certification).
	Certification Certification

	// VisitedNodes, ProbedNodes, and GuardDegree are populated only when
	// Options.CaptureFootprint is set. VisitedNodes is S in visit order;
	// ProbedNodes lists the unvisited nodes whose Degree the search read,
	// sorted, each at most once; GuardDegree is the last w(S̄) guard value
	// an RWR search certified against (0 when no guard was used). Together
	// they are the query's entire read footprint: a mutation that touches
	// none of these nodes and does not raise any endpoint's degree above
	// GuardDegree cannot change this result.
	VisitedNodes []graph.NodeID
	ProbedNodes  []graph.NodeID
	GuardDegree  float64
}

// Certification is the proof block carried by every completed Result: what
// the stopping rule certified, with how much residual uncertainty, and the
// per-node bound intervals backing the returned ranking. Exact answers carry
// their proof too (Certified=true, Gap <= TieEps); ε answers report the
// achieved gap (<= Epsilon); interrupted anytime answers report
// Certified=false with the gap at interruption time.
type Certification struct {
	// Mode is the serving mode the query ran under.
	Mode Mode `json:"mode"`
	// Certified reports that the stopping rule passed (exact separation in
	// ModeExact, gap <= ε in ModeEpsilon). False when MaxVisited or an
	// anytime interruption ended the search first.
	Certified bool `json:"certified"`
	// Epsilon echoes the ε budget for ModeEpsilon queries (0 otherwise).
	Epsilon float64 `json:"epsilon,omitempty"`
	// GapValid reports that the termination test got far enough to compare
	// bounds (k candidates existed). KthBound/RestBound are then the final
	// competing bound keys, in the engine's certification-key scale — the
	// same orientation IterStats documents.
	GapValid  bool    `json:"gap_valid"`
	KthBound  float64 `json:"kth_bound,omitempty"`
	RestBound float64 `json:"rest_bound,omitempty"`
	// Gap is the achieved (residual) certification gap, oriented so that 0
	// means fully separated: RestBound-KthBound for higher-is-closer
	// measures, KthBound-RestBound for THT, clamped at 0. A certified
	// ModeEpsilon answer has Gap <= Epsilon.
	Gap float64 `json:"gap"`
	// Iterations is the expansion count at which the search stopped — the
	// iterations-to-certify for certified answers.
	Iterations int `json:"iterations"`
	// Bounds holds the per-node [lower, upper] proximity interval for each
	// returned node, converted to the measure's displayed score scale and
	// listed in ranking order (parallel to Result.TopK).
	Bounds []NodeBounds `json:"bounds,omitempty"`
}

// NodeBounds is one returned node's certified score interval, in the
// measure's displayed scale (Lower <= Upper regardless of the measure's
// direction; the displayed score lies inside the interval).
type NodeBounds struct {
	Node  graph.NodeID `json:"node"`
	Lower float64      `json:"lb"`
	Upper float64      `json:"ub"`
}
