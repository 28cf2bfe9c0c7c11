package core

import (
	"context"

	"flos/internal/graph"
	"flos/internal/measure"
)

// UnifiedResult is the answer to a multi-measure query: one local search,
// two certified rankings. The embedded Result is the PHP-family answer:
// TopK is the exact top-k under PHP — and, by Theorem 2, under EI and DHT as
// well (identical node sets; scores are in the PHP scale) — listed in
// selection order, Certification is its proof, and the work counters and
// read footprint are those of the one shared search. A unified query always
// certifies an RWR ranking, so GuardDegree is meaningful whenever the guard
// was consulted.
type UnifiedResult struct {
	Result
	// RWR is the exact top-k under random walk with restart (scores are the
	// unnormalized w_i·PHP(i) of Theorem 6), and RWRCert its proof block,
	// in degree-weighted PHP scale. Each family certifies (or fails to)
	// independently, so an interrupted anytime query can return one
	// certified ranking and one best-effort one.
	RWR     []measure.Ranked
	RWRCert Certification
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
	return NewWorkspace().Unified(ctx, g, q, opt)
}

// Unified answers one unified query inside the workspace, on the
// UnifiedTopKCtx contract: Workspace.TopK's search with two goals, one PHP
// engine, one visited set, the PHP-family and RWR rankings certified
// independently. A failed storage read is returned as an error wrapping
// graph.ErrStorage.
func (ws *Workspace) Unified(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options) (_ *UnifiedResult, err error) {
	defer ws.recoverStorage(&err)
	g, release, err := pin(g, q, opt)
	if err != nil {
		return nil, err
	}
	defer release()
	e := ws.phpFor(g, q, opt.Params, opt)
	goals := [2]goal{{kind: measure.PHP}, {kind: measure.RWR}}
	out := search(ctx, e, opt, goals[:])

	// Each ranking is listed in selection order, its scores and intervals in
	// the goal's own key scale: PHP proximity, or degree-weighted PHP.
	php, err := e.result(opt, &goals[0], out, false)
	if err != nil {
		return nil, err
	}
	res := &UnifiedResult{Result: *php}
	if res.RWR, res.RWRCert, err = e.ranking(opt, &goals[1], false); err != nil {
		return nil, err
	}
	if out.interrupted != nil {
		out.interrupted.Partial, out.interrupted.PartialUnified = &res.Result, res
		return nil, out.interrupted
	}
	return res, nil
}
