// Package livegraph serves queries while the graph mutates.
//
// A LiveGraph owns a chain of immutable snapshots. A snapshot keeps its rows
// in fixed chunks of chunkSize behind a directory of chunk pointers. Writers
// apply batched edge mutations by producing a new copy-on-write snapshot: the
// batch copies the directory and each chunk it touches, and re-materializes
// only the adjacency rows it touches; every untouched chunk is the parent's,
// and every untouched row aliases the parent snapshot's slice (and
// transitively the original MemGraph's CSR arrays). Readers pin a snapshot
// with Acquire and run a whole query against that frozen view, so a search
// never observes a torn topology no matter how many batches writers publish
// mid-flight.
//
// Reclamation is deferred and non-blocking: a snapshot carries a reference
// count (one reference held by the LiveGraph while it is current, one per
// pinned reader); when the count reaches zero the snapshot merely becomes
// garbage for the Go runtime to collect. Writers therefore never wait for
// in-flight queries, and readers never wait for writers beyond a brief
// RWMutex-protected pointer load at pin time.
//
// This is the serving-side realization of the paper's pitch that FLoS,
// needing no precomputed index, "naturally supports dynamic graphs": a
// mutation batch costs O(touched rows + touched chunks + n/chunkSize
// directory entries), not a rebuild.
package livegraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flos/internal/graph"
)

// Op selects the kind of a single edge mutation.
type Op uint8

const (
	// OpAdd inserts a new edge; it is an error if the edge already exists.
	OpAdd Op = iota
	// OpRemove deletes an existing edge; it is an error if it does not exist.
	OpRemove
	// OpSet upserts: it inserts the edge if absent, else replaces its weight.
	OpSet
)

// String returns the wire name used by the HTTP mutation endpoint.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpSet:
		return "set"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp converts a wire name back into an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "add":
		return OpAdd, nil
	case "remove":
		return OpRemove, nil
	case "set":
		return OpSet, nil
	}
	return 0, fmt.Errorf("livegraph: unknown op %q", s)
}

// EdgeOp is one undirected edge mutation. W is ignored for OpRemove.
type EdgeOp struct {
	Op   Op
	U, V graph.NodeID
	W    float64
}

// chunkSize is how many rows one chunk holds: a batch copies the chunks it
// touches, 56 KiB each, and a directory of n/chunkSize pointers.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// nodeRow is one node's adjacency, sorted by target, and its weighted degree.
type nodeRow struct {
	nbrs []graph.NodeID
	wts  []float64
	deg  float64
}

// chunk holds the rows of chunkSize consecutive nodes; the last chunk of a
// snapshot may run past its node count, and those rows stay empty.
type chunk [chunkSize]nodeRow

// Snapshot is one immutable point-in-time view in a LiveGraph's chain. It
// implements graph.Graph (plus the StableNeighbors and Viewer capabilities),
// so every search engine runs on it unchanged and may alias its adjacency
// slices for the lifetime of the pin.
type Snapshot struct {
	owner  *LiveGraph
	epoch  uint64
	n      int
	nEdges int64

	// chunks is the row directory: node v's row is
	// chunks[v>>chunkBits][v&chunkMask]. Untouched chunks are the parent
	// snapshot's; within a copied chunk, untouched rows alias the parent's
	// slices and touched rows are freshly materialized copies.
	chunks []*chunk

	// top is the degree index of graph.TopDegreeIndex over the degrees,
	// carried forward from the parent snapshot (see patchTopDegrees).
	top []graph.DegreeEntry

	// refs counts the LiveGraph's "current" reference plus one per pinned
	// reader. Hitting zero only updates the alive gauge; memory reclamation
	// is the garbage collector's job, which is what makes Release non-blocking.
	refs atomic.Int64
}

var (
	_ graph.Graph           = (*Snapshot)(nil)
	_ graph.StableNeighbors = (*Snapshot)(nil)
	_ graph.Viewer          = (*Snapshot)(nil)
)

// Epoch returns the snapshot's position in the chain; the base snapshot is
// epoch 1 and every published batch increments it.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumNodes returns the (fixed) node count.
func (s *Snapshot) NumNodes() int { return s.n }

// NumEdges returns the undirected edge count of this snapshot.
func (s *Snapshot) NumEdges() int64 { return s.nEdges }

// row returns v's row. Only Apply and New write through it, to a chunk of
// the snapshot they are building.
func (s *Snapshot) row(v graph.NodeID) *nodeRow { return &s.chunks[v>>chunkBits][v&chunkMask] }

// Neighbors returns the adjacency of v as immutable slices, sorted by target.
func (s *Snapshot) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	r := s.row(v)
	return r.nbrs, r.wts
}

// Degree returns the weighted degree of v.
func (s *Snapshot) Degree(v graph.NodeID) float64 { return s.row(v).deg }

// degrees gathers every node's degree into one n-length slice.
func (s *Snapshot) degrees() []float64 {
	degs := make([]float64, s.n)
	for v := range degs {
		degs[v] = s.Degree(graph.NodeID(v))
	}
	return degs
}

// TopDegrees returns up to k largest-degree nodes, non-increasing: entry for
// entry the index MemGraph serves over the same degrees, which keeps the RWR
// w(S̄) guard byte-identical to a frozen rebuild.
func (s *Snapshot) TopDegrees(k int) []graph.DegreeEntry {
	if k > len(s.top) {
		k = len(s.top)
	}
	return s.top[:k]
}

// StableNeighbors reports that adjacency slices stay valid while the snapshot
// is pinned, letting the engines skip defensive copies.
func (s *Snapshot) StableNeighbors() bool { return true }

// NewView returns the snapshot itself: it is immutable and safe for any
// number of concurrent readers.
func (s *Snapshot) NewView() graph.Graph { return s }

// Release drops one pin. It must be called exactly once per Acquire and never
// blocks. Releasing the last reference only updates the owner's alive gauge.
func (s *Snapshot) Release() {
	if s.refs.Add(-1) == 0 {
		s.owner.alive.Add(-1)
	}
}

func (s *Snapshot) retain() { s.refs.Add(1) }

// Materialize rebuilds the snapshot into a fresh, fully independent MemGraph
// (no aliasing into the chain). Tests use it to run the serial golden
// reference for byte-identity checks.
func (s *Snapshot) Materialize() (*graph.MemGraph, error) {
	b := graph.NewBuilder(s.NumNodes())
	for v := 0; v < s.NumNodes(); v++ {
		nbrs, ws := s.Neighbors(graph.NodeID(v))
		for i, u := range nbrs {
			if u > graph.NodeID(v) {
				if err := b.AddEdge(graph.NodeID(v), u, ws[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build()
}

// LiveGraph owns the snapshot chain. It itself implements graph.Graph by
// delegating to the current snapshot — convenient for one-shot calls like
// flos.TopK(live, q, opt), which pin a snapshot per query through the
// Snapshotter capability — while servers pin explicitly via Acquire.
type LiveGraph struct {
	// mu guards the cur pointer swap; readers only hold it for a pointer
	// load + refcount increment.
	mu  sync.RWMutex
	cur *Snapshot

	// wmu serializes writers; snapshot construction happens outside mu so
	// readers are never blocked behind a batch.
	wmu sync.Mutex

	alive    atomic.Int64 // snapshots with refs > 0
	created  atomic.Int64 // snapshots ever published (incl. base)
	rowsCoWd atomic.Int64 // adjacency rows re-materialized across all batches
	applied  atomic.Int64 // edge ops applied
	batches  atomic.Int64 // successful non-empty Apply calls
}

var (
	_ graph.Graph       = (*LiveGraph)(nil)
	_ graph.Viewer      = (*LiveGraph)(nil)
	_ graph.Snapshotter = (*LiveGraph)(nil)
)

// New wraps base in a LiveGraph. The base snapshot (epoch 1) aliases the
// MemGraph's CSR rows; the base must not be modified afterwards.
func New(base *graph.MemGraph) *LiveGraph {
	n := base.NumNodes()
	s := &Snapshot{
		epoch:  1,
		n:      n,
		nEdges: base.NumEdges(),
		chunks: make([]*chunk, (n+chunkMask)>>chunkBits),
		top:    base.TopDegrees(n),
	}
	for c := range s.chunks {
		s.chunks[c] = new(chunk)
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		r := s.row(v)
		r.nbrs, r.wts = base.Neighbors(v)
		r.deg = base.Degree(v)
	}
	lg := &LiveGraph{cur: s}
	s.owner = lg
	s.refs.Store(1)
	lg.alive.Store(1)
	lg.created.Store(1)
	return lg
}

// Acquire pins and returns the current snapshot. The caller must call
// Release exactly once when done.
func (lg *LiveGraph) Acquire() *Snapshot {
	lg.mu.RLock()
	s := lg.cur
	s.retain()
	lg.mu.RUnlock()
	return s
}

// AcquireSnapshot implements graph.Snapshotter for the engine-side per-query
// pinning path.
func (lg *LiveGraph) AcquireSnapshot() (graph.Graph, func()) {
	s := lg.Acquire()
	return s, s.Release
}

// snap loads the current snapshot without pinning it. Safe because snapshots
// are immutable and reclaimed only by the garbage collector; callers must not
// assume the snapshot stays current.
func (lg *LiveGraph) snap() *Snapshot {
	lg.mu.RLock()
	s := lg.cur
	lg.mu.RUnlock()
	return s
}

// NumNodes returns the node count (fixed across the chain).
func (lg *LiveGraph) NumNodes() int { return lg.snap().NumNodes() }

// NumEdges returns the current snapshot's undirected edge count.
func (lg *LiveGraph) NumEdges() int64 { return lg.snap().NumEdges() }

// Neighbors returns the current snapshot's adjacency of v.
func (lg *LiveGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	return lg.snap().Neighbors(v)
}

// Degree returns the current snapshot's weighted degree of v.
func (lg *LiveGraph) Degree(v graph.NodeID) float64 { return lg.snap().Degree(v) }

// TopDegrees returns the current snapshot's degree index prefix.
func (lg *LiveGraph) TopDegrees(k int) []graph.DegreeEntry { return lg.snap().TopDegrees(k) }

// NewView returns the LiveGraph itself: all read paths resolve through the
// immutable current snapshot, so one handle serves any number of goroutines.
func (lg *LiveGraph) NewView() graph.Graph { return lg }

// Epoch returns the current snapshot's epoch.
func (lg *LiveGraph) Epoch() uint64 { return lg.snap().epoch }

// Stats is a point-in-time counter snapshot for metrics export.
type Stats struct {
	Epoch          uint64
	SnapshotsAlive int64
	SnapshotsTotal int64
	RowsCoWed      int64
	OpsApplied     int64
	Batches        int64
	Nodes          int
	Edges          int64
}

// Stats returns current live-graph counters.
func (lg *LiveGraph) Stats() Stats {
	s := lg.snap()
	return Stats{
		Epoch:          s.epoch,
		SnapshotsAlive: lg.alive.Load(),
		SnapshotsTotal: lg.created.Load(),
		RowsCoWed:      lg.rowsCoWd.Load(),
		OpsApplied:     lg.applied.Load(),
		Batches:        lg.batches.Load(),
		Nodes:          s.NumNodes(),
		Edges:          s.NumEdges(),
	}
}

// Apply atomically applies a batch of edge mutations, publishing one new
// snapshot. Either every op applies (the new snapshot becomes current and
// its epoch, with the sorted list of nodes whose adjacency changed, is
// returned) or none do: the first invalid op aborts the whole batch with
// nothing published. An empty batch returns the current snapshot unchanged.
//
// The returned snapshot is NOT pinned for the caller; it is alive because it
// is current. The touched list is what cache invalidation intersects against
// query footprints.
//
// Writers are serialized; readers are never blocked during row construction,
// only during the final pointer swap.
func (lg *LiveGraph) Apply(ops []EdgeOp) (*Snapshot, []graph.NodeID, error) {
	lg.wmu.Lock()
	defer lg.wmu.Unlock()

	// cur only changes under wmu, so this unpinned load is the true parent.
	parent := lg.snap()
	if len(ops) == 0 {
		return parent, nil, nil
	}

	n := parent.NumNodes()
	next := &Snapshot{
		owner:  lg,
		epoch:  parent.epoch + 1,
		n:      n,
		nEdges: parent.nEdges,
		// The directory is copied; every chunk stays the parent's until the
		// batch first writes to it.
		chunks: slices.Clone(parent.chunks),
	}

	cowed := make(map[graph.NodeID]bool, 2*len(ops))
	// cow returns v's row for writing: on the batch's first write to v's
	// chunk the chunk is copied (its rows still alias the parent's slices),
	// and on the first write to v its slices are copied.
	cow := func(v graph.NodeID) *nodeRow {
		c := v >> chunkBits
		if next.chunks[c] == parent.chunks[c] {
			cp := new(chunk)
			*cp = *parent.chunks[c]
			next.chunks[c] = cp
		}
		r := &next.chunks[c][v&chunkMask]
		if !cowed[v] {
			cowed[v] = true
			r.nbrs = append([]graph.NodeID(nil), r.nbrs...)
			r.wts = append([]float64(nil), r.wts...)
		}
		return r
	}
	// find returns the insertion position of u in v's sorted row and whether
	// u is present.
	find := func(v, u graph.NodeID) (int, bool) {
		row := next.row(v).nbrs
		i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
		return i, i < len(row) && row[i] == u
	}
	insert := func(v, u graph.NodeID, w float64) {
		r := cow(v)
		i, _ := find(v, u)
		r.nbrs = slices.Insert(r.nbrs, i, u)
		r.wts = slices.Insert(r.wts, i, w)
	}
	remove := func(v, u graph.NodeID) {
		r := cow(v)
		i, _ := find(v, u)
		r.nbrs = slices.Delete(r.nbrs, i, i+1)
		r.wts = slices.Delete(r.wts, i, i+1)
	}

	for i, op := range ops {
		u, v := op.U, op.V
		if u == v || u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, nil, fmt.Errorf("livegraph: op %d: invalid edge (%d,%d)", i, u, v)
		}
		switch op.Op {
		case OpAdd, OpSet:
			// The Builder's rule: NaN and +Inf are refused like w <= 0.
			if !(op.W > 0) || math.IsInf(op.W, 1) {
				return nil, nil, fmt.Errorf("livegraph: op %d: weight %g is not a positive finite number", i, op.W)
			}
			if j, exists := find(u, v); exists {
				if op.Op == OpAdd {
					return nil, nil, fmt.Errorf("livegraph: op %d: edge (%d,%d) already exists", i, u, v)
				}
				cow(u).wts[j] = op.W
				j, _ = find(v, u)
				cow(v).wts[j] = op.W
			} else {
				insert(u, v, op.W)
				insert(v, u, op.W)
				next.nEdges++
			}
		case OpRemove:
			if _, exists := find(u, v); !exists {
				return nil, nil, fmt.Errorf("livegraph: op %d: edge (%d,%d) does not exist", i, u, v)
			}
			remove(u, v)
			remove(v, u)
			next.nEdges--
		default:
			return nil, nil, fmt.Errorf("livegraph: op %d: unknown op %d", i, op.Op)
		}
	}

	// Recompute touched degrees by summing each fresh row in ascending-target
	// order — the same order Builder.Build sums sorted halves — so degrees
	// match a from-scratch rebuild bit for bit.
	touched := make([]graph.NodeID, 0, len(cowed))
	for v := range cowed {
		touched = append(touched, v)
	}
	slices.Sort(touched)
	for _, v := range touched {
		r := next.row(v) // in a chunk this batch copied
		var sum float64
		for _, w := range r.wts {
			sum += w
		}
		if math.IsInf(sum, 1) {
			return nil, nil, fmt.Errorf("livegraph: weighted degree of node %d overflows", v)
		}
		r.deg = sum
	}
	var ok bool
	if next.top, ok = patchTopDegrees(parent.top, touched, next.Degree); !ok {
		next.top = graph.TopDegreeIndex(next.degrees())
	}

	next.refs.Store(1) // the LiveGraph's "current" reference
	lg.mu.Lock()
	lg.cur = next
	lg.mu.Unlock()
	lg.alive.Add(1)
	lg.created.Add(1)
	lg.rowsCoWd.Add(int64(len(touched)))
	lg.applied.Add(int64(len(ops)))
	lg.batches.Add(1)
	parent.Release() // drop the chain's reference; pinned readers keep it alive

	return next, touched, nil
}

// patchTopDegrees returns graph.TopDegreeIndex of the new degrees given old,
// the index before the nodes in touched (ascending) changed degree: old
// without the touched nodes, merged with each touched node that now ranks at
// or before old's last entry. Every untouched node outside old ranks after
// that entry, so as long as the merge fills len(old) places they are exactly
// the new index; when it does not (a member fell out of range, and which
// outsider moves up is not known) ok is false and the caller rebuilds the
// index. When no touched node is in old or moves into it, old itself is the
// new index and is returned as is.
func patchTopDegrees(old []graph.DegreeEntry, touched []graph.NodeID, degree func(graph.NodeID) float64) (_ []graph.DegreeEntry, ok bool) {
	before := func(a, b graph.DegreeEntry) bool {
		if a.Degree != b.Degree {
			return a.Degree > b.Degree
		}
		return a.Node < b.Node
	}
	var moved []graph.DegreeEntry
	for _, v := range touched {
		e := graph.DegreeEntry{Node: v, Degree: degree(v)}
		if !before(old[len(old)-1], e) {
			moved = append(moved, e)
		}
	}
	isTouched := func(e graph.DegreeEntry) bool {
		_, found := slices.BinarySearch(touched, e.Node)
		return found
	}
	if len(moved) == 0 && !slices.ContainsFunc(old, isTouched) {
		return old, true
	}
	slices.SortFunc(moved, func(a, b graph.DegreeEntry) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	out := make([]graph.DegreeEntry, 0, len(old)+len(moved))
	for _, e := range old {
		if isTouched(e) {
			continue
		}
		for len(moved) > 0 && before(moved[0], e) {
			out = append(out, moved[0])
			moved = moved[1:]
		}
		out = append(out, e)
	}
	out = append(out, moved...)
	if len(out) < len(old) {
		return nil, false
	}
	return out[:len(old)], true
}
