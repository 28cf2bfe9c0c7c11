package core

import (
	"context"
	"sync"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// Benchmarks for the per-iteration bookkeeping cost on queries whose visited
// set grows large. Near-tie parameterizations (RWR at restart 0.98 with
// k=100, PHP at decay 0.1 with k=1,000) force the search to the 60,000-node
// MaxVisited cap with only moderate solver work, so any O(|S|) cost per
// iteration (dummy update, expansion pick, termination scan+sort, trace
// counters) dominates the incremental bound solver. PHP at k=100 certifies
// after 159 visited nodes since new upper bounds start at r_d, and a decay
// near 1 reaches the cap only by making the solver dominate (80M
// relaxations at c=0.995). results/substrate.md records the numbers.

var benchGraphOnce sync.Once
var benchGraph *graph.MemGraph

func largeBenchGraph(b *testing.B) *graph.MemGraph {
	benchGraphOnce.Do(func() {
		g, err := gen.Community(150000, 450000, gen.DefaultCommunityParams(), 42)
		if err != nil {
			b.Fatal(err)
		}
		benchGraph = g
	})
	return benchGraph
}

func largeVisitedOptions(kind measure.Kind) Options {
	opt := DefaultOptions(kind, 100)
	switch kind {
	case measure.RWR:
		opt.Params.C = 0.98
	case measure.PHP:
		opt.Params.C = 0.1
		opt.K = 1000
	}
	opt.MaxVisited = 60000
	return opt
}

func benchLargeVisited(b *testing.B, kind measure.Kind, tracer bool) {
	g := largeBenchGraph(b)
	opt := largeVisitedOptions(kind)
	ws := NewWorkspace()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tracer {
			opt.Tracer = &TraceCollector{}
		}
		res, err := ws.TopK(ctx, g, 11, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Visited < 50000 {
			b.Fatalf("visited %d < 50k: benchmark not in the large-|S| regime", res.Visited)
		}
		b.ReportMetric(float64(res.Visited), "visited")
		b.ReportMetric(float64(res.Iterations), "iters")
		b.ReportMetric(float64(res.Sweeps), "sweeps")
	}
}

func BenchmarkLargeVisitedRWR(b *testing.B) { benchLargeVisited(b, measure.RWR, false) }
func BenchmarkLargeVisitedPHP(b *testing.B) { benchLargeVisited(b, measure.PHP, false) }
func BenchmarkLargeVisitedRWRTraced(b *testing.B) {
	benchLargeVisited(b, measure.RWR, true)
}

// BenchmarkLargeVisitedTHT exercises the finite-horizon engine in its
// deep-search regime (high-diameter grid, long horizon). It is
// solver-dominated rather than bookkeeping-dominated, so it mostly guards
// against regressions from the substrate extraction.
func BenchmarkLargeVisitedTHT(b *testing.B) {
	g := gen.Grid(300, 300)
	opt := DefaultOptions(measure.THT, 500)
	opt.Params.L = 100
	ws := NewWorkspace()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ws.TopK(ctx, g, 45150, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Visited), "visited")
		b.ReportMetric(float64(res.Sweeps), "sweeps")
	}
}

// BenchmarkIterationOverhead isolates the non-solver per-iteration cost the
// refactor attacks: the tracer's per-phase clocks split each iteration into
// expansion (which carries the expansion pick), bound solving, and
// certification (the termination test's candidate selection and rest scan).
// The dummy update runs before the phase clocks start, so it shows up only
// in ns/op. Overhead = ns/op − solve; the solve phase is the incremental
// bound solver the overhead is compared against.
func BenchmarkIterationOverhead(b *testing.B) {
	g := largeBenchGraph(b)
	opt := largeVisitedOptions(measure.RWR)
	ws := NewWorkspace()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := &TraceCollector{}
		opt.Tracer = tc
		if _, err := ws.TopK(ctx, g, 11, opt); err != nil {
			b.Fatal(err)
		}
		var solve, expand, certify int64
		for _, it := range tc.Iters {
			solve += it.SolveNS
			expand += it.ExpandNS
			certify += it.CertifyNS
		}
		b.ReportMetric(float64(expand)/1e6, "expand-ms")
		b.ReportMetric(float64(solve)/1e6, "solve-ms")
		b.ReportMetric(float64(certify)/1e6, "certify-ms")
	}
}
