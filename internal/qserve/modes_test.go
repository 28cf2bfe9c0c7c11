package qserve

import (
	"context"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/measure"
)

// TestModeCacheAsymmetry pins the mode-aware result cache's one-way sharing
// rule: an exact entry serves the same query in ε (and anytime) mode — its
// gap is 0, within any budget — but an ε entry never serves an exact
// request, because its ranking is only certified to within ε.
func TestModeCacheAsymmetry(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{Workers: 2, CacheEntries: 64})
	defer pool.Close()
	ctx := context.Background()

	exactReq := Request{Query: 11, Opt: core.DefaultOptions(measure.RWR, 10)}
	epsReq := exactReq
	epsReq.Opt.Mode = core.ModeEpsilon
	epsReq.Opt.Epsilon = 1e-3
	anyReq := exactReq
	anyReq.Opt.Mode = core.ModeAnytime

	// Cold exact query populates the cache.
	if _, err := pool.Do(ctx, exactReq); err != nil {
		t.Fatal(err)
	}
	if m := pool.Metrics(); m.CacheHits != 0 || m.CacheMisses != 1 {
		t.Fatalf("after cold exact: hits=%d misses=%d, want 0/1", m.CacheHits, m.CacheMisses)
	}

	// The ε request for the same query must hit the exact entry, and the
	// served answer satisfies the ε contract trivially (certified, gap 0).
	resp, err := pool.Do(ctx, epsReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatalf("ε request did not hit the exact cache entry")
	}
	c := resp.TopK.Certification
	if !c.Certified || c.Gap > epsReq.Opt.Epsilon {
		t.Fatalf("exact-served ε answer not within budget: certified=%v gap=%g", c.Certified, c.Gap)
	}

	// Anytime rides the same fallback.
	resp, err = pool.Do(ctx, anyReq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatalf("anytime request did not hit the exact cache entry")
	}
	if m := pool.Metrics(); m.CacheHits != 2 {
		t.Fatalf("hits=%d, want 2", m.CacheHits)
	}

	// Converse direction: an ε entry for a different query must NOT serve
	// the later exact request.
	epsFirst := Request{Query: 1099, Opt: core.DefaultOptions(measure.RWR, 10)}
	epsFirst.Opt.Mode = core.ModeEpsilon
	epsFirst.Opt.Epsilon = 1e-3
	if _, err := pool.Do(ctx, epsFirst); err != nil {
		t.Fatal(err)
	}
	exactAfter := Request{Query: 1099, Opt: core.DefaultOptions(measure.RWR, 10)}
	resp, err = pool.Do(ctx, exactAfter)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatalf("exact request was served from an ε cache entry")
	}
	if got := resp.TopK.Certification; got.Mode != core.ModeExact || !got.Certified || got.Gap > core.TieEps {
		t.Fatalf("exact recompute carries wrong certification: %+v", got)
	}

	// Different ε budgets are distinct keys (beyond the exact fallback): the
	// ε=1e-3 entry is cached under its own key and hits on repeat.
	if _, err := pool.Do(ctx, epsFirst); err != nil {
		t.Fatal(err)
	}
	if m := pool.Metrics(); m.CacheHits != 3 {
		t.Fatalf("repeat ε request: hits=%d, want 3", m.CacheHits)
	}
}

// TestAnytimePartialNotCached checks that an uncertified anytime partial is
// never cached — its content depends on where the deadline happened to land,
// not on the query — and that the pool counts it as an AnytimePartial
// success rather than an interruption.
func TestAnytimePartialNotCached(t *testing.T) {
	g, err := gen.Community(20000, 80000, gen.DefaultCommunityParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{Workers: 1, CacheEntries: 64})
	defer pool.Close()

	req := Request{Query: 1, Opt: core.DefaultOptions(measure.RWR, 50)}
	req.Opt.Mode = core.ModeAnytime
	run := func() *Response {
		t.Helper()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		resp, err := pool.Do(ctx, req)
		if err != nil {
			t.Fatalf("anytime query under expired deadline failed: %v", err)
		}
		return resp
	}

	first := run()
	if first.TopK.Certification.Certified {
		t.Fatalf("partial under expired deadline claims certified")
	}
	if first.CacheHit {
		t.Fatalf("first anytime query reported a cache hit on an empty cache")
	}
	second := run()
	if second.CacheHit {
		t.Fatalf("uncertified anytime partial was served from cache")
	}

	m := pool.Metrics()
	if m.AnytimePartial != 2 {
		t.Fatalf("AnytimePartial = %d, want 2", m.AnytimePartial)
	}
	if m.OK != 2 || m.Deadline != 0 {
		t.Fatalf("partials misclassified: OK=%d Deadline=%d, want 2/0", m.OK, m.Deadline)
	}
	if m.OK+m.Hit+m.Deadline+m.Canceled+m.Failed != m.Served {
		t.Fatalf("outcome partition broken: %+v", m)
	}

	// A certified anytime run (no deadline pressure) IS cached and serves
	// later requests.
	resp, err := pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.TopK.Certification.Certified {
		t.Fatalf("unpressured anytime run not certified")
	}
	resp, err = pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatalf("certified anytime answer was not cached")
	}
}
