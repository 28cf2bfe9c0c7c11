package core

import (
	"errors"

	"flos/internal/graph"
	"flos/internal/measure"
)

// This file holds the engine-workspace machinery every search runs in: the
// generation-stamped global→local index, the row helpers that let
// slice-of-slice state regrow without allocating, and the Workspace that
// owns one reusable engine of each family.
//
// The design target is the high-QPS serving path. FLoS queries touch only a
// small visited set S, so on short queries the dominant cost of the seed
// implementation was not the bound solver but the allocator: every TopK
// rebuilt ~15 bookkeeping slices and a global→local map from zero. A
// Workspace keeps all of that across queries; "clearing" the index is a
// single generation bump (O(1), no rehash), and every slice is truncated in
// place keeping its backing storage.

// nodeIndex maps global node identifiers to local engine indices through
// dense generation-stamped arrays sized to the graph: lookup is one load
// and compare, insert is two stores, and a logical clear is cur++ — no
// rehashing, no zeroing. It costs 8 B per graph node, allocated on a
// Workspace's first query on a graph at least that large. A stamped
// negative entry is not a visited node but an engine's shell slot −idx−1
// (putShell), which visiting the node overwrites.
type nodeIndex struct {
	idx []int32 // local index of v, valid iff gen[v] == cur
	gen []uint32
	cur uint32
}

// init prepares the index for a fresh query on an n-node graph: it sizes
// the stamp arrays (growing if the workspace moved to a larger graph) and
// bumps the generation.
func (x *nodeIndex) init(n int) {
	if len(x.gen) < n {
		x.idx = make([]int32, n)
		x.gen = make([]uint32, n)
		x.cur = 1
		return
	}
	x.cur++
	if x.cur == 0 { // generation counter wrapped: invalidate every stamp
		clear(x.gen)
		x.cur = 1
	}
}

func (x *nodeIndex) get(v graph.NodeID) (int32, bool) {
	if x.gen[v] != x.cur || x.idx[v] < 0 {
		return 0, false
	}
	return x.idx[v], true
}

// slot returns v's raw entry: a local index, a negative shell slot, or
// false when v has neither.
func (x *nodeIndex) slot(v graph.NodeID) (int32, bool) {
	if x.gen[v] != x.cur {
		return 0, false
	}
	return x.idx[v], true
}

// putShell records shell slot si for unvisited v.
func (x *nodeIndex) putShell(v graph.NodeID, si int32) { x.put(v, -si-1) }

func (x *nodeIndex) put(v graph.NodeID, li int32) {
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

// Workspace owns the reusable engine state for one query at a time; every
// search runs in one, a one-shot TopKCtx in a fresh one. It is NOT safe
// for concurrent use — Querier pools workspaces to serve concurrent
// callers, and qserve gives each worker its own — but it may be reused
// across queries, graphs, measures, and option sets freely: every query
// resets the state it needs, and results never alias workspace memory.
//
// A reused workspace produces byte-identical results and work counters to
// a fresh one; only the allocation profile differs.
type Workspace struct {
	php *phpEngine
	tht *thtEngine
}

// NewWorkspace returns an empty workspace; engines are materialized lazily
// on first use per family.
func NewWorkspace() *Workspace { return &Workspace{} }

// phpFor returns the workspace's PHP-family engine reset for a new query
// with decay parameters p.
func (ws *Workspace) phpFor(g graph.Graph, q graph.NodeID, p measure.Params, opt Options) *phpEngine {
	if ws.php == nil {
		ws.php = new(phpEngine)
	}
	ws.php.reset(g, q, p, opt)
	return ws.php
}

// recoverStorage is deferred by every search. It turns a panic that wraps
// graph.ErrStorage (a backend's failed read) into *err and drops the
// engines the search left mid-update; any other panic is a bug and is
// re-raised.
func (ws *Workspace) recoverStorage(err *error) {
	r := recover()
	if r == nil {
		return
	}
	e, ok := r.(error)
	if !ok || !errors.Is(e, graph.ErrStorage) {
		panic(r)
	}
	*ws = Workspace{}
	*err = e
}

// thtFor is phpFor for the finite-horizon engine.
func (ws *Workspace) thtFor(g graph.Graph, q graph.NodeID, L int) *thtEngine {
	if ws.tht == nil {
		ws.tht = new(thtEngine)
	}
	ws.tht.reset(g, q, L)
	return ws.tht
}
