package flos

// Benchmarks for the session API: the cold/warm pair quantifies what a
// reusable Querier saves over one-shot TopK on the same workload (run with
// -benchmem; the allocs/op column is the headline). results/batch.md
// records a reference run.

import (
	"context"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
)

func benchCommunity(b *testing.B) *graph.MemGraph {
	b.Helper()
	g, err := gen.Community(50000, 250000, gen.CommunityParamsForDensity(10), 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchWorkload(g *graph.MemGraph, n int) []graph.NodeID {
	qs := make([]graph.NodeID, n)
	for i := range qs {
		qs[i] = graph.NodeID((i * 7919) % g.NumNodes())
	}
	return qs
}

// BenchmarkQuerierReuse is the headline cold-vs-warm comparison: PHP top-20
// on the community stand-in, one query per iteration over a fixed workload.
// "cold" rebuilds every engine structure per call (plain TopK); "warm"
// answers through one Querier whose pooled workspace keeps them across
// queries.
func BenchmarkQuerierReuse(b *testing.B) {
	g := benchCommunity(b)
	opt := DefaultOptions(PHP, 20)
	queries := benchWorkload(g, 64)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := TopK(g, queries[i%len(queries)], opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		qr, err := NewQuerier(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for _, q := range queries { // prime the pooled workspace
			if _, err := qr.TopK(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := qr.TopK(ctx, queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
