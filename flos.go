// Package flos is a Go implementation of FLoS — Fast Local Search — the
// exact top-k proximity search algorithm of Wu, Jin & Zhang, "Fast and
// Unified Local Search for Random Walk Based K-Nearest-Neighbor Query in
// Large Graphs" (SIGMOD 2014).
//
// Given a weighted undirected graph and a query node, FLoS returns the k
// nodes nearest to the query under a random-walk proximity measure —
// penalized hitting probability (PHP), effective importance (EI),
// discounted hitting time (DHT), truncated hitting time (THT), or random
// walk with restart (RWR) — while visiting only a small neighborhood of the
// query, with a proof-carrying guarantee that the returned set is exact.
//
// Quick start:
//
//	g, err := flos.LoadEdgeList("graph.txt")
//	res, err := flos.TopK(g, query, flos.DefaultOptions(flos.RWR, 10))
//	for _, r := range res.TopK {
//	    fmt.Println(r.Node, r.Score)
//	}
//
// Graphs can live in memory (LoadEdgeList, NewGraphBuilder, the Generate*
// functions) or on disk, read one row per visited node with a byte budget
// of pinned hub rows (CreateDiskGraph / OpenDiskGraph); the search code is
// identical over both.
package flos

import (
	"context"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
)

// Graph is the read interface the search consumes; see internal/graph for
// the contract. MemGraph and DiskGraph both satisfy it.
type Graph = graph.Graph

// NodeID identifies a node (dense 0..n-1).
type NodeID = graph.NodeID

// MemGraph is the in-memory CSR graph.
type MemGraph = graph.MemGraph

// DiskGraph is the disk-resident graph store: one file read per visited
// row, except the hub rows its budget pins in memory.
type DiskGraph = diskgraph.Store

// Builder accumulates edges for an in-memory graph.
type Builder = graph.Builder

// Measure selects a proximity measure.
type Measure = measure.Kind

// The supported proximity measures.
const (
	// PHP is penalized hitting probability (higher = closer).
	PHP = measure.PHP
	// EI is effective importance, degree-normalized RWR (higher = closer).
	EI = measure.EI
	// DHT is discounted hitting time (lower = closer).
	DHT = measure.DHT
	// THT is L-truncated hitting time (lower = closer).
	THT = measure.THT
	// RWR is random walk with restart / personalized PageRank
	// (higher = closer).
	RWR = measure.RWR
)

// Params carries the numeric parameters (decay/restart C, THT horizon L,
// solver tolerance Tau, iteration cap MaxIter).
type Params = measure.Params

// Options configures a TopK query.
type Options = core.Options

// TieEps is the separating gap below which every search treats two scores
// as tied: either side of an exact tie at rank k is a valid answer.
const TieEps = core.TieEps

// Result is a completed query: the top-k list plus work counters.
type Result = core.Result

// Ranked pairs a node with its proximity score.
type Ranked = measure.Ranked

// Tracer observes the search's convergence trajectory (Options.Tracer):
// one IterStats per local-expansion iteration, including the certification
// gap the stopping rule closes. Unlike Options.Trace it does not perturb
// the expansion schedule, so traced runs do the same work as untraced ones.
type Tracer = core.Tracer

// IterStats is one iteration's observability record; see core.IterStats.
type IterStats = core.IterStats

// TraceCollector is a Tracer that appends every record to Iters.
type TraceCollector = core.TraceCollector

// SnapshotObserver is a Tracer extension receiving full per-iteration bound
// snapshots (TraceEvent); assign one to Options.Tracer to get the detailed
// trace the removed Options.Trace callback used to deliver.
type SnapshotObserver = core.SnapshotObserver

// SnapshotCollector is a SnapshotObserver that appends every snapshot to
// Events.
type SnapshotCollector = core.SnapshotCollector

// TraceEvent is a full per-iteration bound snapshot, delivered to a
// SnapshotObserver.
type TraceEvent = core.TraceEvent

// Mode selects the serving mode of a query: exact (the default), ε-certified
// early stopping, or anytime (deadline returns the current partial top-k).
type Mode = core.Mode

// The serving modes.
const (
	// ModeExact runs the paper's exact stopping rule (the default).
	ModeExact = core.ModeExact
	// ModeEpsilon stops as soon as the certified gap is within
	// Options.Epsilon.
	ModeEpsilon = core.ModeEpsilon
	// ModeAnytime returns the in-flight top-k with Certified=false instead
	// of an *Interrupted error when the context fires.
	ModeAnytime = core.ModeAnytime
)

// ParseMode parses "exact", "epsilon", or "anytime" ("" = exact).
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Certification is the proof block attached to every Result: serving mode,
// whether the answer is certified, the achieved gap and its bounds, and
// per-node score intervals for the returned top-k.
type Certification = core.Certification

// NodeBounds is one returned node's certified score interval.
type NodeBounds = core.NodeBounds

// DefaultOptions mirrors the paper's experimental configuration
// (c = 0.5, τ = 1e−5, L = 10).
func DefaultOptions(m Measure, k int) Options { return core.DefaultOptions(m, k) }

// DefaultParams returns the paper's numeric defaults.
func DefaultParams() Params { return measure.DefaultParams() }

// TopK answers an exact k-nearest-neighbor query with FLoS. It is a thin
// wrapper over TopKCtx with a background context, building all engine state
// per call, an index sized to the graph included; callers issuing more than
// one query should hold a Querier.
func TopK(g Graph, q NodeID, opt Options) (*Result, error) { return core.TopK(g, q, opt) }

// TopKCtx is TopK with cancellation: the search checks ctx at every local
// expansion and returns promptly with an *Interrupted error (wrapping
// ErrCanceled or ErrDeadline) once the context fires.
func TopKCtx(ctx context.Context, g Graph, q NodeID, opt Options) (*Result, error) {
	return core.TopKCtx(ctx, g, q, opt)
}

// ErrCanceled and ErrDeadline are the typed causes carried by *Interrupted
// when a context ends a query early. ErrInvalidOptions and ErrInvalidQuery
// classify rejected requests (malformed Options, query node out of range).
// ErrStorage reports a query failed by its graph's storage (a disk store's
// row that could not be read). Test with errors.Is.
var (
	ErrCanceled       = core.ErrCanceled
	ErrDeadline       = core.ErrDeadline
	ErrInvalidOptions = core.ErrInvalidOptions
	ErrInvalidQuery   = core.ErrInvalidQuery
	ErrStorage        = graph.ErrStorage
)

// Querier is a reusable query session: one graph, one option set, a pool of
// warm engine workspaces. It is the recommended entry point for any caller
// issuing more than one query — repeated queries skip nearly all per-call
// allocation, results are byte-identical to one-shot TopK, and the session
// is safe for concurrent use (view-capable backends run queries in
// parallel; others are serialized internally). See NewQuerier.
type Querier = core.Querier

// NewQuerier validates opt once and returns a reusable session over g.
func NewQuerier(g Graph, opt Options) (*Querier, error) { return core.NewQuerier(g, opt) }

// Interrupted is the error a context-terminated query returns; its Partial
// is the in-flight Result, whose counters (Visited, Iterations, Sweeps)
// are the work done so far.
type Interrupted = core.Interrupted

// UnifiedResult carries both rankings of a UnifiedTopK query: the embedded
// Result is the PHP-family answer with the shared search's counters, and
// RWR/RWRCert the RWR ranking and its proof.
type UnifiedResult = core.UnifiedResult

// UnifiedTopK answers both ranking families — PHP/EI/DHT and RWR — with one
// shared local search (Options.Params.C is the PHP decay factor).
func UnifiedTopK(g Graph, q NodeID, opt Options) (*UnifiedResult, error) {
	return core.UnifiedTopK(g, q, opt)
}

// UnifiedTopKCtx is UnifiedTopK with cancellation, on the TopKCtx contract.
func UnifiedTopKCtx(ctx context.Context, g Graph, q NodeID, opt Options) (*UnifiedResult, error) {
	return core.UnifiedTopKCtx(ctx, g, q, opt)
}

// DiskGraphReader is an independent concurrent-safe view of a DiskGraph:
// readers share the store's node table and pinned rows but own the scratch
// buffers Neighbors returns. Obtain one per goroutine with
// (*DiskGraph).NewReader when querying a disk store concurrently.
type DiskGraphReader = diskgraph.Reader

// Exact computes the full proximity vector by global iteration — the
// brute-force reference (and the paper's GI baseline). Returns the vector
// and the sweep count.
func Exact(g Graph, q NodeID, m Measure, p Params) ([]float64, int, error) {
	return measure.Exact(g, q, m, p)
}

// Certify audits a TopK result against a full global-iteration solve,
// accepting either side of score ties within eps. It costs a full GI run.
func Certify(g Graph, q NodeID, res *Result, m Measure, p Params, eps float64) error {
	return core.Certify(g, q, res, m, p, eps)
}

// NewGraphBuilder returns a Builder for a graph with exactly n nodes.
func NewGraphBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewGrowingGraphBuilder returns a Builder sized by the largest node seen.
func NewGrowingGraphBuilder() *Builder { return graph.NewGrowingBuilder() }

// LoadEdgeList reads a SNAP-style text edge list ("u v [w]" per line).
func LoadEdgeList(path string) (*MemGraph, error) { return graph.LoadEdgeList(path) }

// SaveBinary / LoadBinary round-trip a graph in the fast binary format.
func SaveBinary(path string, g *MemGraph) error { return graph.SaveBinary(path, g) }

// LoadBinary reads a graph written by SaveBinary.
func LoadBinary(path string) (*MemGraph, error) { return graph.LoadBinary(path) }

// MustPaperExample returns the paper's 8-node Figure 1(a) example graph
// (0-indexed), used in the quickstart and the worked-example benchmarks.
func MustPaperExample() *MemGraph { return gen.PaperExample() }

// GenerateCommunity builds a clustered, high-diameter graph with planted
// communities — the structural stand-in for real social/co-purchase
// networks (see internal/gen.Community).
func GenerateCommunity(n int, m int64, seed uint64) (*MemGraph, error) {
	return gen.Community(n, m, gen.CommunityParamsForDensity(2*float64(m)/float64(n)), seed)
}

// GenerateRandom builds an Erdős–Rényi G(n, m) graph (the paper's RAND).
func GenerateRandom(n int, m int64, seed uint64) (*MemGraph, error) {
	return gen.Erdos(n, m, seed)
}

// GenerateRMAT builds an R-MAT scale-free graph with GTgraph defaults.
func GenerateRMAT(n int, m int64, seed uint64) (*MemGraph, error) {
	return gen.RMAT(n, m, gen.DefaultRMAT(), seed)
}

// LiveGraph is a mutable graph served as a chain of immutable copy-on-write
// CSR snapshots: writers apply atomic mutation batches (Apply) that produce
// a new snapshot re-materializing only the touched adjacency rows, while
// readers pin the current snapshot (Acquire / AcquireSnapshot) and keep
// querying it unchanged until they release it. A LiveGraph satisfies Graph
// directly (each read delegates to the current snapshot), and the search
// layer pins one snapshot per query, so in-flight queries never observe a
// mutation. See internal/livegraph.
type LiveGraph = livegraph.LiveGraph

// GraphSnapshot is one immutable snapshot in a LiveGraph's chain. It
// satisfies Graph and serves reads lock-free.
type GraphSnapshot = livegraph.Snapshot

// EdgeOp is one edge mutation in a LiveGraph batch.
type EdgeOp = livegraph.EdgeOp

// EdgeOpKind selects an EdgeOp's operation.
type EdgeOpKind = livegraph.Op

// The edge mutation kinds.
const (
	// OpAdd inserts a new edge (errors if it exists).
	OpAdd = livegraph.OpAdd
	// OpRemove deletes an existing edge (errors if missing).
	OpRemove = livegraph.OpRemove
	// OpSet upserts an edge's weight.
	OpSet = livegraph.OpSet
)

// NewLiveGraph wraps an in-memory graph in a live snapshot chain. The base
// snapshot aliases g's adjacency storage (no copy); g must not be used for
// writes afterwards.
func NewLiveGraph(g *MemGraph) *LiveGraph { return livegraph.New(g) }

// CreateDiskGraph writes g into the disk-store format.
func CreateDiskGraph(path string, g *MemGraph) error {
	return diskgraph.Create(path, g, 0)
}

// OpenDiskGraph opens a disk store with a budget of cacheBytes bytes of
// pinned rows (0 = 64 MiB): the longest rows, each kept in memory from its
// first read on. Every other visit reads its row from the file. The
// store's node table, 16 bytes per node, is read into memory at open,
// outside that budget.
func OpenDiskGraph(path string, cacheBytes int64) (*DiskGraph, error) {
	return diskgraph.Open(path, cacheBytes)
}
