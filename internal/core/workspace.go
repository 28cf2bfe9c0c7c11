package core

import (
	"errors"
	"unsafe"

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
// A workspace holds one node index, owned by whichever engine ran last:
// phpFor and thtFor move it to the engine about to run, and its generation
// keeps counting across the move, so the other engine's old stamps stay
// stale.
//
// A reused workspace produces byte-identical results and work counters to
// a fresh one; only the allocation profile differs.
type Workspace struct {
	php *phpEngine
	tht *thtEngine
}

// WorkspaceCap is the most bytes a pooled workspace keeps in use between
// searches, node index excluded (see Trim). It is per workspace, not a
// share of a pool-wide budget, which would shrink with the worker count. A
// search uses about 1.3 KB per visited node on a MemGraph and 1.5 KB on a
// disk store (ε = 1e-3 queries on Erdős G(100k, 1M)): a median ε-PHP
// search there uses about 0.3 MB and an ε-RWR one 0.8 MB, and about 2 % of
// the RWR searches pass the cap. Exact top-200 searches over a whole
// 2,000-node graph stay under it, THT (0.93 MB) and PHP (0.84 MB) together.
const WorkspaceCap = 2 << 20

// NewWorkspace returns an empty workspace; engines are materialized lazily
// on first use per family.
func NewWorkspace() *Workspace { return &Workspace{} }

// phpFor returns the workspace's PHP-family engine reset for a new query
// with decay parameters p.
func (ws *Workspace) phpFor(g graph.Graph, q graph.NodeID, p measure.Params, opt Options) *phpEngine {
	if ws.php == nil {
		ws.php = new(phpEngine)
	}
	ws.moveIndex(&ws.php.local)
	ws.php.reset(g, q, p, opt)
	return ws.php
}

// index returns the engine index that holds the workspace's node arrays,
// or nil before the first search.
func (ws *Workspace) index() *nodeIndex {
	if ws.php != nil && ws.php.local.gen != nil {
		return &ws.php.local
	}
	if ws.tht != nil && ws.tht.local.gen != nil {
		return &ws.tht.local
	}
	return nil
}

// moveIndex hands the workspace's node index to the engine index to.
func (ws *Workspace) moveIndex(to *nodeIndex) {
	if from := ws.index(); from != nil && from != to {
		*to, *from = *from, nodeIndex{}
	}
}

// indexOnly returns a workspace holding nothing but ws's node index, the
// one piece of state sized to the graph rather than to a search.
func (ws *Workspace) indexOnly() *Workspace {
	x := ws.index()
	if x == nil {
		return NewWorkspace()
	}
	return &Workspace{php: &phpEngine{localSearch: localSearch{local: *x}}}
}

// UsedBytes returns the bytes the engines' slices held in use when their
// last searches ended: every slice's length times its element size, inner
// rows included, adjacency copies only on a backend without
// graph.StableNeighbors. The node index is left out. It costs O(|S|) of
// the searches it counts, never a walk over retained capacity.
func (ws *Workspace) UsedBytes() int {
	n := 0
	if ws.php != nil {
		n += ws.php.usedBytes()
	}
	if ws.tht != nil {
		n += ws.tht.usedBytes()
	}
	return n
}

// Trim readies ws to go back to a pool. A workspace whose engines used
// more than WorkspaceCap bytes gives back its search-sized slices: Trim
// returns a workspace that keeps only ws's node index, so a pooled
// workspace costs what a typical search needs, not the largest search it
// ran, and the next search does not allocate the 8 B-per-node index
// again. Otherwise Trim returns ws. Either way the next answer and its work
// counters are those of a fresh workspace.
func (ws *Workspace) Trim() *Workspace {
	if ws.UsedBytes() <= WorkspaceCap {
		return ws
	}
	return ws.indexOnly()
}

// recoverStorage is deferred by every search. It turns a panic that wraps
// graph.ErrStorage (a backend's failed read) into *err and drops the
// engines the search left mid-update, keeping only the node index; any
// other panic is a bug and is re-raised.
func (ws *Workspace) recoverStorage(err *error) {
	r := recover()
	if r == nil {
		return
	}
	e, ok := r.(error)
	if !ok || !errors.Is(e, graph.ErrStorage) {
		panic(r)
	}
	*ws = *ws.indexOnly()
	*err = e
}

// thtFor is phpFor for the finite-horizon engine.
func (ws *Workspace) thtFor(g graph.Graph, q graph.NodeID, L int) *thtEngine {
	if ws.tht == nil {
		ws.tht = new(thtEngine)
	}
	ws.moveIndex(&ws.tht.local)
	ws.tht.reset(g, q, L)
	return ws.tht
}

// bytesOf returns the bytes s holds in use: its length times its element
// size.
func bytesOf[T any](s []T) int {
	var z T
	return len(s) * int(unsafe.Sizeof(z))
}

// rowBytes is bytesOf for a slice of rows, the rows in use included.
func rowBytes[T any](rows [][]T) int {
	n := bytesOf(rows)
	for _, r := range rows {
		n += bytesOf(r)
	}
	return n
}
