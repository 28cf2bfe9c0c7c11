package qserve

import (
	"context"
	"testing"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
	"flos/internal/obs/cachelens"
)

// TestResultCacheLens attaches an analytics lens to a pool's result cache
// and checks the flow accounting end to end: every cache lookup lands in
// the lens, the occupancy gauges (entries, capacity) are exported, and
// repeated queries register as hits on both planes.
func TestResultCacheLens(t *testing.T) {
	g := liveTestGraph(t, 2000, 5400, 3)
	lens := cachelens.New(cachelens.Config{Capacity: 4, SampleRate: 1, Seed: 11})
	pool := New(g, Config{Workers: 2, CacheEntries: 4, CacheLens: lens})
	defer pool.Close()
	ctx := context.Background()

	lget := graph.LargestComponentNodes(g)
	// 8 distinct queries through a 4-entry cache: the first 4 evict as the
	// second 4 land. Then re-ask the last one — a hit.
	for i := 0; i < 8; i++ {
		if _, err := pool.Do(ctx, Request{Query: lget[i*17%len(lget)], Opt: core.DefaultOptions(measure.PHP, 5)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := pool.Do(ctx, Request{Query: lget[7*17%len(lget)], Opt: core.DefaultOptions(measure.PHP, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("repeat of the most recent query missed")
	}

	m := pool.Metrics()
	if m.CacheCapacity != 4 {
		t.Fatalf("CacheCapacity = %d, want 4", m.CacheCapacity)
	}
	if m.CacheEntries != 4 {
		t.Fatalf("CacheEntries = %d, want full occupancy 4", m.CacheEntries)
	}
	if m.CacheEvictions == 0 {
		t.Fatal("8 distinct queries through 4 entries evicted nothing")
	}

	if got := lens.Snapshot().SampledAccesses; got != m.CacheHits+m.CacheMisses {
		t.Fatalf("lens sampled %d accesses, cache counted %d lookups", got, m.CacheHits+m.CacheMisses)
	}
}

// TestLensIgnoresInvalidations pins the accounting rule that surgical
// invalidations are neither lookups the lens sees nor LRU evictions: those
// entries die for correctness, not for space. Also covers the last-batch
// survivor gauges.
func TestLensIgnoresInvalidations(t *testing.T) {
	base := liveTestGraph(t, 400, 1200, 2)
	lg := livegraph.New(base)
	lens := cachelens.New(cachelens.Config{Capacity: 128, SampleRate: 1, Seed: 5})
	pool := New(lg, Config{Workers: 2, CacheEntries: 128, CacheLens: lens})
	defer pool.Close()
	ctx := context.Background()

	lget := graph.LargestComponentNodes(base)
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Query: lget[i*31%len(lget)], Opt: core.DefaultOptions(measure.PHP, 5)}
		if _, err := pool.Do(ctx, reqs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// A mutation touching a query node surgically invalidates its entry —
	// the cache's eviction counter and the lens's totals stay flat.
	if _, err := pool.Mutate([]livegraph.EdgeOp{
		{Op: livegraph.OpSet, U: reqs[0].Query, V: lget[100%len(lget)], W: 2},
	}); err != nil {
		t.Fatal(err)
	}
	m := pool.Metrics()
	if m.InvalidationsSurgical == 0 {
		t.Fatal("touching mutation invalidated nothing")
	}
	if m.LastBatchSurgical == 0 || m.LastBatchSurgical+m.LastBatchRetained != int64(len(reqs)) {
		t.Fatalf("last-batch gauges surgical=%d retained=%d, want them to partition %d entries",
			m.LastBatchSurgical, m.LastBatchRetained, len(reqs))
	}
	if got := lens.Snapshot().SampledAccesses; got != m.CacheHits+m.CacheMisses {
		t.Fatalf("lens sampled %d accesses, cache counted %d lookups after surgical invalidation", got, m.CacheHits+m.CacheMisses)
	}
	if m.CacheEvictions != 0 {
		t.Fatalf("surgical invalidation leaked into the LRU eviction counter: %d", m.CacheEvictions)
	}

	// Asking again hits the survivors and misses the invalidated entries;
	// the lens still sees each of those lookups once.
	for _, req := range reqs {
		if _, err := pool.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	m = pool.Metrics()
	if m.CacheHits == 0 || m.CacheMisses <= int64(len(reqs)) {
		t.Fatalf("re-asking after the batch: %d hits, %d misses; want both kinds", m.CacheHits, m.CacheMisses)
	}
	if got := lens.Snapshot().SampledAccesses; got != m.CacheHits+m.CacheMisses {
		t.Fatalf("lens sampled %d accesses, cache counted %d lookups after re-asking", got, m.CacheHits+m.CacheMisses)
	}
}
