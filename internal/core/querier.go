package core

import (
	"context"
	"sync"

	"flos/internal/graph"
)

// Querier is a reusable query session over one graph and one option set:
// the recommended entry point for any caller issuing more than one query.
// It owns a pool of engine workspaces, so repeated queries skip nearly all
// of the per-call allocation a bare TopK pays (the bookkeeping slices, the
// transition rows, the global→local index sized to the graph), and it
// holds per-workspace graph views, so concurrent queries against
// view-capable backends (MemGraph, DiskGraph) run genuinely in parallel.
//
// A Querier is safe for concurrent use. Each in-flight query checks out one
// workspace (plus its graph view) from an internal sync.Pool and returns it
// when done; backends without the graph.Viewer capability are assumed
// non-concurrent-safe and their queries are serialized internally.
//
// Results produced through a Querier are byte-for-byte identical to the
// equivalent one-shot TopKCtx / UnifiedTopKCtx calls, including the work
// counters; only the allocation profile differs.
//
// Options.Tracer is shared by every query the Querier runs; under
// concurrent use its callbacks will interleave. Use a dedicated Querier (or
// one-shot TopKCtx) for traced runs.
type Querier struct {
	g      graph.Graph
	opt    Options
	viewer bool
	pool   sync.Pool // of *querierWS
	mu     sync.Mutex
}

// querierWS pairs a workspace with the graph view it queries through.
type querierWS struct {
	ws *Workspace
	g  graph.Graph
}

// NewQuerier validates opt once and returns a session bound to g.
func NewQuerier(g graph.Graph, opt Options) (*Querier, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	_, viewer := g.(graph.Viewer)
	qr := &Querier{g: g, opt: opt, viewer: viewer}
	qr.pool.New = func() any {
		gv := qr.g
		if v, ok := gv.(graph.Viewer); ok {
			gv = v.NewView()
		}
		return &querierWS{ws: NewWorkspace(), g: gv}
	}
	return qr, nil
}

// put returns w to the pool, trimmed to what a typical search needs
// (Workspace.Trim).
func (qr *Querier) put(w *querierWS) {
	w.ws = w.ws.Trim()
	qr.pool.Put(w)
}

// TopK answers one query on the TopKCtx contract, reusing pooled engine
// state.
func (qr *Querier) TopK(ctx context.Context, q graph.NodeID) (*Result, error) {
	w := qr.pool.Get().(*querierWS)
	defer qr.put(w)
	if !qr.viewer {
		qr.mu.Lock()
		defer qr.mu.Unlock()
	}
	return w.ws.TopK(ctx, w.g, q, qr.opt)
}

// Unified answers one unified query on the UnifiedTopKCtx contract, reusing
// pooled engine state.
func (qr *Querier) Unified(ctx context.Context, q graph.NodeID) (*UnifiedResult, error) {
	w := qr.pool.Get().(*querierWS)
	defer qr.put(w)
	if !qr.viewer {
		qr.mu.Lock()
		defer qr.mu.Unlock()
	}
	return w.ws.Unified(ctx, w.g, q, qr.opt)
}
