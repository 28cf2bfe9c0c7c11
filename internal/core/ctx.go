package core

import (
	"context"
	"errors"
	"fmt"

	"flos/internal/graph"
	"flos/internal/measure"
)

// Sentinel errors for context-terminated queries. TopKCtx and
// UnifiedTopKCtx wrap them in an *Interrupted carrying the partial work
// counters; test with errors.Is.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = errors.New("core: query canceled")
	// ErrDeadline reports that the query's context deadline expired.
	ErrDeadline = errors.New("core: query deadline exceeded")
)

// Sentinel errors for rejected queries; test with errors.Is. They classify
// the caller's mistake so servers can map them to 4xx without string
// matching.
var (
	// ErrInvalidOptions reports malformed Options (Options.Validate).
	ErrInvalidOptions = errors.New("core: invalid options")
	// ErrInvalidQuery reports a query node outside the graph's node range.
	ErrInvalidQuery = errors.New("core: invalid query node")
)

// Interrupted is the error returned when a query's context fires before the
// bounds separate. Its Partial records how much work the search had done —
// the counters a completed Result carries — so callers can account for
// (and meter) abandoned queries. Unwrap yields ErrCanceled or ErrDeadline.
type Interrupted struct {
	// Cause is ErrCanceled or ErrDeadline.
	Cause error
	// Partial is the in-flight answer at interruption time, with
	// Certification.Certified=false and the residual gap — the same result
	// ModeAnytime would have returned instead of this error — and the work
	// counters of the search so far. For a unified query it is
	// PartialUnified's embedded Result. The engine always sets it; it is nil
	// only on an Interrupted built for a query that never started (e.g. an
	// unstarted batch member).
	Partial *Result
	// PartialUnified is the whole in-flight answer of a unified query.
	PartialUnified *UnifiedResult
}

func (e *Interrupted) Error() string {
	p := e.Partial
	if p == nil {
		p = &Result{}
	}
	return fmt.Sprintf("%v after %d iterations (%d visited, %d sweeps)",
		e.Cause, p.Iterations, p.Visited, p.Sweeps)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *Interrupted) Unwrap() error { return e.Cause }

// interrupted maps a context error onto the typed sentinels.
func interrupted(ctxErr error) *Interrupted {
	cause := ErrCanceled
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		cause = ErrDeadline
	}
	return &Interrupted{Cause: cause}
}

// TopKCtx is TopK with cancellation: the search checks ctx, and its
// deadline against the clock, at every local expansion and returns an
// *Interrupted (wrapping ErrCanceled or ErrDeadline) as soon as the context
// fires or the deadline passes. Iterations are small — one
// boundary-batch expansion plus an incremental bound re-solve — so the
// response to cancellation is prompt even on large graphs.
//
// Each call runs in a fresh Workspace; hold a Querier or a Workspace to
// reuse engine state across queries.
func TopKCtx(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options) (*Result, error) {
	return NewWorkspace().TopK(ctx, g, q, opt)
}

// TopK answers one single-measure query inside the workspace, on the
// TopKCtx contract: the shared prologue, the family's engine, the search
// driver with one goal, the family's result builder. A failed storage read
// is returned as an error wrapping graph.ErrStorage.
func (ws *Workspace) TopK(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options) (_ *Result, err error) {
	defer ws.recoverStorage(&err)
	g, release, err := pin(g, q, opt)
	if err != nil {
		return nil, err
	}
	defer release()
	goals := [1]goal{{kind: opt.Measure}}
	var res *Result
	var out outcome
	if opt.Measure == measure.THT {
		e := ws.thtFor(g, q, opt.Params.L)
		out = search(ctx, e, opt, goals[:])
		res = e.result(opt, &goals[0], out)
	} else {
		// EI, DHT and RWR ride on the PHP engine through Theorems 2 and 6.
		p, err := measure.EquivalentPHPParams(opt.Measure, opt.Params)
		if err != nil {
			return nil, err
		}
		e := ws.phpFor(g, q, p, opt)
		out = search(ctx, e, opt, goals[:])
		if res, err = e.result(opt, &goals[0], out, true); err != nil {
			return nil, err
		}
	}
	if out.interrupted != nil {
		out.interrupted.Partial = res
		return nil, out.interrupted
	}
	return res, nil
}
