package flos

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - solver tolerance τ: the α-vs-β tradeoff in the paper's O(α·h²·β²);
//   - no-precompute queries on a mutating graph: FLoS on a LiveGraph
//     snapshot vs K-dash, which must re-factor after any edge change (§1's
//     motivation);
//   - query throughput: concurrent FLoS queries against one shared graph.

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"flos/internal/baseline"
	"flos/internal/graph"
	"flos/internal/harness"
)

func ablationGraph(b *testing.B) (*MemGraph, []NodeID) {
	b.Helper()
	ds := harness.RealStandIns(1.0 / 32)[0] // AZ-shaped
	e := benchGraph(b, ds)
	return e.g, e.queries
}

// BenchmarkAblationTau sweeps the Algorithm 7 tolerance: looser τ means
// fewer relaxations per iteration (smaller α) but looser bounds and hence
// more visited nodes (larger β).
func BenchmarkAblationTau(b *testing.B) {
	g, queries := ablationGraph(b)
	for _, tau := range []float64{1e-3, 1e-5, 1e-7} {
		tau := tau
		b.Run(fmt.Sprintf("tau=%.0e", tau), func(b *testing.B) {
			visited, sweeps := 0.0, 0.0
			for i := 0; i < b.N; i++ {
				opt := DefaultOptions(RWR, 20)
				opt.Params.Tau = tau
				res, err := TopK(g, queries[i%len(queries)], opt)
				if err != nil {
					b.Fatal(err)
				}
				visited += float64(res.Visited)
				sweeps += float64(res.Sweeps)
			}
			b.ReportMetric(visited/float64(b.N), "visited/op")
			b.ReportMetric(sweeps/float64(b.N), "relaxations/op")
		})
	}
}

// BenchmarkDynamicUpdates is the §1 motivation experiment: after every edge
// change, answer one exact RWR query on the snapshot the batch published.
// FLoS reads it directly; K-dash must redo its factorization first. One op =
// one mutation + one exact query.
func BenchmarkDynamicUpdates(b *testing.B) {
	base, err := GenerateCommunity(3000, 8100, 7)
	if err != nil {
		b.Fatal(err)
	}
	queries := harness.Queries(base, 8, 1)
	c := DefaultParams().C

	b.Run("FLoS_RWR", func(b *testing.B) {
		lg := NewLiveGraph(base)
		for i := 0; i < b.N; i++ {
			snap := mutate(b, lg, i)
			if _, err := TopK(snap, queries[i%len(queries)], DefaultOptions(RWR, 10)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("K-dash", func(b *testing.B) {
		lg := NewLiveGraph(base)
		for i := 0; i < b.N; i++ {
			snap := mutate(b, lg, i)
			kd, err := baseline.PrecomputeKDash(snap, c, 0) // invalidated by the mutation
			if err != nil {
				b.Fatal(err)
			}
			if _, err := kd.Query(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mutate toggles a pseudo-random edge and returns the published snapshot.
func mutate(b *testing.B, lg *LiveGraph, i int) *GraphSnapshot {
	b.Helper()
	n := NodeID(lg.NumNodes())
	u := NodeID((i*7919 + 13) % int(n))
	v := NodeID((i*104729 + 512) % int(n))
	if u == v {
		v = (v + 1) % n
	}
	op := EdgeOp{Op: OpAdd, U: u, V: v, W: 1}
	nbrs, _ := lg.Neighbors(u)
	for _, x := range nbrs {
		if x == v {
			op.Op = OpRemove
		}
	}
	snap, _, err := lg.Apply([]EdgeOp{op})
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// BenchmarkRelabelDiskLocality times graph.RelabelBFS: the same FLoS
// queries against a disk store built from the raw graph vs the BFS-relabeled
// one. Relabeling packs each neighborhood into adjacent CSR rows. The store
// reads one row per visit whatever the order (filereads/op), so the gain
// can only show in time, through the kernel's page cache and readahead.
func BenchmarkRelabelDiskLocality(b *testing.B) {
	raw, err := GenerateCommunity(60000, 162000, 11)
	if err != nil {
		b.Fatal(err)
	}
	// The community generator already lays communities out contiguously;
	// scramble identifiers first so the raw store represents a graph whose
	// ids arrived in arbitrary order, as SNAP downloads do.
	scrambled := scrambleIDs(b, raw, 99)
	relabeled, back, err := graph.RelabelBFS(scrambled, 0)
	if err != nil {
		b.Fatal(err)
	}
	_ = back
	for _, cse := range []struct {
		name string
		g    *MemGraph
	}{{"scrambled", scrambled}, {"relabeled", relabeled}} {
		cse := cse
		b.Run(cse.name, func(b *testing.B) {
			dir := b.TempDir()
			path := filepath.Join(dir, "g.flos")
			if err := CreateDiskGraph(path, cse.g); err != nil {
				b.Fatal(err)
			}
			store, err := OpenDiskGraph(path, 1<<20) // 1 MiB of pinned rows
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			queries := harness.Queries(cse.g, benchQueries, 1)
			misses0 := store.CacheStats().Misses
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := TopK(store, q, DefaultOptions(PHP, 10)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			misses := store.CacheStats().Misses - misses0
			b.ReportMetric(float64(misses)/float64(b.N), "filereads/op")
		})
	}
}

// scrambleIDs permutes node identifiers pseudo-randomly.
func scrambleIDs(b *testing.B, g *MemGraph, seed uint64) *MemGraph {
	b.Helper()
	n := g.NumNodes()
	perm := make([]NodeID, n)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		j := int((z ^ (z >> 31)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	nb := NewGraphBuilder(n)
	for v := 0; v < n; v++ {
		nbrs, ws := g.Neighbors(NodeID(v))
		for i, u := range nbrs {
			if u > NodeID(v) {
				if err := nb.AddEdge(perm[v], perm[u], ws[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	out, err := nb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkParallelQueries measures throughput of concurrent exact queries
// against one shared immutable graph (MemGraph reads are lock-free).
func BenchmarkParallelQueries(b *testing.B) {
	g, queries := ablationGraph(b)
	var idx atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := idx.Add(1)
			q := queries[int(i)%len(queries)]
			if _, err := TopK(g, q, DefaultOptions(PHP, 10)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
