package core

import (
	"context"
	"slices"

	"flos/internal/graph"
	"flos/internal/measure"
)

// This file holds the engine-workspace machinery behind Querier: the
// generation-stamped replacements for the per-query maps, the row helpers
// that let slice-of-slice state regrow without allocating, and the
// Workspace wrapper that owns one reusable engine of each family.
//
// The design target is the high-QPS serving path. FLoS queries touch only a
// small visited set S, so on short queries the dominant cost of the seed
// implementation was not the bound solver but the allocator: every TopK
// rebuilt ~15 bookkeeping slices and a global→local map from zero. A warm
// Workspace keeps all of that across queries; "clearing" the map is a
// single generation bump (O(1), no rehash), and every slice is truncated in
// place keeping its backing storage.

// nodeIndex maps global node identifiers to local engine indices. A cold
// (one-shot) engine uses a Go map sized by the visited set; a warm
// workspace switches to dense generation-stamped arrays sized to the graph:
// lookup is one load and compare, insert is two stores, and a logical clear
// is cur++ — no rehashing, no zeroing.
type nodeIndex struct {
	m   map[graph.NodeID]int32 // transient mode; nil in dense mode
	idx []int32                // dense mode: local index of v, valid iff gen[v] == cur
	gen []uint32
	cur uint32
}

// init prepares the index for a fresh query. Dense mode sizes the stamp
// arrays to n nodes (growing if the workspace moved to a larger graph) and
// bumps the generation; transient mode (re)creates the map.
func (x *nodeIndex) init(n int, dense bool) {
	if !dense {
		x.idx, x.gen = nil, nil
		if x.m == nil {
			x.m = make(map[graph.NodeID]int32)
		} else {
			clear(x.m)
		}
		return
	}
	x.m = nil
	if len(x.gen) < n {
		x.idx = make([]int32, n)
		x.gen = make([]uint32, n)
		x.cur = 1
		return
	}
	x.cur++
	if x.cur == 0 { // generation counter wrapped: invalidate every stamp
		for i := range x.gen {
			x.gen[i] = 0
		}
		x.cur = 1
	}
}

func (x *nodeIndex) get(v graph.NodeID) (int32, bool) {
	if x.m != nil {
		li, ok := x.m[v]
		return li, ok
	}
	if x.gen[v] != x.cur {
		return 0, false
	}
	return x.idx[v], true
}

func (x *nodeIndex) put(v graph.NodeID, li int32) {
	if x.m != nil {
		x.m[v] = li
		return
	}
	x.gen[v] = x.cur
	x.idx[v] = li
}

// has reports membership without the local index.
func (x *nodeIndex) has(v graph.NodeID) bool {
	_, ok := x.get(v)
	return ok
}

// appendRow appends one empty row to a slice-of-slices, reusing the spare
// inner capacity a truncated (warm) outer slice retains past its length.
func appendRow[T any](rows [][]T) [][]T {
	if len(rows) < cap(rows) {
		rows = rows[:len(rows)+1]
		rows[len(rows)-1] = rows[len(rows)-1][:0]
		return rows
	}
	return append(rows, nil)
}

// appendRowCopy appends a copy of row, reusing retained inner capacity.
func appendRowCopy[T any](rows [][]T, row []T) [][]T {
	rows = appendRow(rows)
	rows[len(rows)-1] = append(rows[len(rows)-1], row...)
	return rows
}

// scored pairs a local index with a selection key; the engines' expansion
// and termination scans collect candidates into reusable []scored scratch.
type scored struct {
	i   int32
	key float64
}

// sortScored orders candidates best first: by descending key, or ascending
// when asc, ties toward the smaller global identifier.
func sortScored(s []scored, nodes []graph.NodeID, asc bool) {
	slices.SortFunc(s, func(a, b scored) int {
		if a.key != b.key {
			if (a.key < b.key) == asc {
				return -1
			}
			return 1
		}
		if nodes[a.i] < nodes[b.i] {
			return -1
		}
		return 1
	})
}

// Workspace owns the reusable engine state for one query at a time. It is
// NOT safe for concurrent use — Querier pools workspaces to serve
// concurrent callers, and qserve gives each worker its own — but it may be
// reused across queries, graphs, measures, and option sets freely: every
// query resets the state it needs, and results never alias workspace
// memory.
//
// A workspace-run query produces byte-identical results and work counters
// to the equivalent cold TopKCtx call; only the allocation profile differs.
type Workspace struct {
	php *phpEngine
	tht *thtEngine
}

// NewWorkspace returns an empty workspace; engines are materialized lazily
// on first use per family.
func NewWorkspace() *Workspace { return &Workspace{} }

// TopK answers one query inside the workspace, on the TopKCtx contract.
func (ws *Workspace) TopK(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options) (*Result, error) {
	return topKIn(ctx, g, q, opt, ws)
}

// Unified answers one unified query inside the workspace, on the
// UnifiedTopKCtx contract.
func (ws *Workspace) Unified(ctx context.Context, g graph.Graph, q graph.NodeID, opt Options) (*UnifiedResult, error) {
	return unifiedIn(ctx, g, q, opt, ws)
}

// phpFor returns the workspace's PHP-family engine reset for a new query
// with decay parameters p, or a cold engine when ws is nil.
func (ws *Workspace) phpFor(g graph.Graph, q graph.NodeID, p measure.Params, opt Options) *phpEngine {
	var e *phpEngine
	if ws == nil {
		e = newPHPEngine(g, q, p.C, p.Tau, p.MaxIter, opt.Tighten)
	} else {
		if ws.php == nil {
			ws.php = new(phpEngine)
		}
		e = ws.php
		e.reset(g, q, p.C, p.Tau, p.MaxIter, opt.Tighten, true)
	}
	e.capProbes = opt.CaptureFootprint
	e.wSbar = newWSbarGuard(g)
	return e
}

// thtFor is phpFor for the finite-horizon engine.
func (ws *Workspace) thtFor(g graph.Graph, q graph.NodeID, L int) *thtEngine {
	if ws == nil {
		return newTHTEngine(g, q, L)
	}
	if ws.tht == nil {
		ws.tht = new(thtEngine)
	}
	ws.tht.reset(g, q, L, true)
	return ws.tht
}
