package qserve

import (
	"context"
	"math"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
	"flos/internal/obs"
	"flos/internal/obs/trace"
)

// tracedCtx opens a request on tr and returns a context carrying its root
// span, plus a finisher that closes the request.
func tracedCtx(tr *trace.Tracer) (context.Context, *trace.Active, func(status string)) {
	a := tr.StartRequest(trace.TraceParent{})
	root := a.StartSpan(trace.SpanID{}, "GET /topk")
	root.SetKind("server")
	ctx := trace.NewContext(context.Background(), a, root.ID())
	return ctx, a, func(status string) {
		root.End()
		a.Finish(status)
	}
}

// TestTracedQuerySpanTree runs one disk-backed query under an active trace
// and asserts the pool's full span set shows up in the stored tree: cache
// lookup, admission wait, execute with solver-phase children, and (cold
// store) page-fault time.
func TestTracedQuerySpanTree(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	store := buildStore(t, g, 512, 16<<10) // tiny cache: guaranteed faults
	p := New(store, Config{Workers: 1, CacheEntries: 16})
	defer p.Close()

	tr := trace.New(trace.Config{HeadRate: 1})
	ctx, a, finish := tracedCtx(tr)
	lc := graph.LargestComponentNodes(g)
	req := Request{Query: lc[0], Opt: core.DefaultOptions(measure.PHP, 10)}
	if _, err := p.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	finish("ok")

	kept := tr.Get(a.TraceIDString())
	if kept == nil {
		t.Fatal("trace not retained at HeadRate 1")
	}
	names := map[string]int{}
	for _, s := range kept.Spans {
		names[s.Name]++
	}
	for _, want := range []string{
		"GET /topk", "qserve.cache.lookup", "qserve.queue.wait", "qserve.execute",
		"solver.expand", "solver.solve", "solver.certify", "disk.pagefault",
	} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace (have %v)", want, names)
		}
	}

	// The tree nests: root → {lookup, wait, execute → solver phases}.
	roots := kept.Tree()
	if len(roots) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(roots))
	}
	var exec *trace.SpanNode
	for _, c := range roots[0].Children {
		if c.Span.Name == "qserve.execute" {
			exec = c
		}
	}
	if exec == nil {
		t.Fatal("qserve.execute not a child of the boundary span")
	}
	childNames := map[string]bool{}
	for _, c := range exec.Children {
		childNames[c.Span.Name] = true
	}
	for _, want := range []string{"solver.expand", "solver.solve", "solver.certify", "disk.pagefault"} {
		if !childNames[want] {
			t.Errorf("execute span missing child %q (have %v)", want, childNames)
		}
	}

	// A second identical query hits the cache; its trace records the hit.
	ctx2, a2, finish2 := tracedCtx(tr)
	resp, err := p.Do(ctx2, req)
	if err != nil || !resp.CacheHit {
		t.Fatalf("second query: err %v, hit %v", err, resp != nil && resp.CacheHit)
	}
	finish2("ok")
	kept2 := tr.Get(a2.TraceIDString())
	if kept2 == nil {
		t.Fatal("hit trace not retained")
	}
	foundHit := false
	for _, s := range kept2.Spans {
		if s.Name != "qserve.cache.lookup" {
			continue
		}
		for _, at := range s.Attrs {
			if at.Key == "hit" && at.Bool {
				foundHit = true
			}
		}
	}
	if !foundHit {
		t.Error("cache-hit trace has no hit=true lookup span")
	}
}

// TestTracingByteIdentical runs the same mixed-measure workload through a
// traced pool and an untraced pool and requires bit-for-bit identical
// results and work counters — the span layer observes the schedule, it must
// never perturb it.
func TestTracingByteIdentical(t *testing.T) {
	g, err := gen.Community(3000, 9000, gen.DefaultCommunityParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	lc := graph.LargestComponentNodes(g)
	kinds := []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.THT, measure.RWR}

	plain := New(g, Config{Workers: 2, CacheEntries: -1})
	defer plain.Close()
	traced := New(g, Config{Workers: 2, CacheEntries: -1})
	defer traced.Close()
	tr := trace.New(trace.Config{HeadRate: 1, Ring: 64})

	for i := 0; i < 25; i++ {
		req := Request{
			Query:   lc[(i*131)%len(lc)],
			Opt:     core.DefaultOptions(kinds[i%len(kinds)], 10),
			Unified: i%5 == 4,
		}
		want, err := plain.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, a, finish := tracedCtx(tr)
		got, err := traced.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		finish("ok")
		if tr.Get(a.TraceIDString()) == nil {
			t.Fatal("traced run did not retain its trace")
		}
		compareResponses(t, i, want, got)
	}
}

func compareResponses(t *testing.T, i int, want, got *Response) {
	t.Helper()
	if (want.TopK == nil) != (got.TopK == nil) || (want.Unified == nil) != (got.Unified == nil) {
		t.Fatalf("query %d: result shape mismatch", i)
	}
	check := func(w, g *core.Result) {
		if len(w.TopK) != len(g.TopK) {
			t.Fatalf("query %d: topk size %d vs %d", i, len(w.TopK), len(g.TopK))
		}
		for j := range w.TopK {
			if w.TopK[j].Node != g.TopK[j].Node ||
				math.Float64bits(w.TopK[j].Score) != math.Float64bits(g.TopK[j].Score) {
				t.Fatalf("query %d rank %d: %v vs %v (traced run diverged)", i, j, w.TopK[j], g.TopK[j])
			}
		}
		if w.Iterations != g.Iterations || w.Visited != g.Visited || w.Sweeps != g.Sweeps {
			t.Fatalf("query %d: work counters (%d,%d,%d) vs (%d,%d,%d)",
				i, w.Iterations, w.Visited, w.Sweeps, g.Iterations, g.Visited, g.Sweeps)
		}
	}
	check(want.TopK, got.TopK)
	if want.Unified != nil {
		for j := range want.Unified.RWR {
			if math.Float64bits(want.Unified.RWR[j].Score) != math.Float64bits(got.Unified.RWR[j].Score) {
				t.Fatalf("query %d: unified RWR rank %d diverged", i, j)
			}
		}
	}
}

// TestTracedSlowQueryJoins is the acceptance contract end to end at the pool
// level: with a 1ns slow threshold and 0% head sampling, an executed query's
// trace is tail-promoted and its trace ID appears in the slow-query log, the
// flight record, and a latency exemplar.
func TestTracedSlowQueryJoins(t *testing.T) {
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 64, SlowLatency: time.Nanosecond})
	p := New(g, Config{Workers: 1, CacheEntries: -1, Recorder: rec})
	defer p.Close()
	tr := trace.New(trace.Config{HeadRate: 0, SlowLatency: time.Nanosecond})

	ctx, a, finish := tracedCtx(tr)
	lc := graph.LargestComponentNodes(g)
	req := Request{ID: "req-join", Query: lc[0], Opt: core.DefaultOptions(measure.RWR, 10)}
	if _, err := p.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	finish("ok")

	traceID := a.TraceIDString()
	kept := tr.Get(traceID)
	if kept == nil {
		t.Fatal("slow query's trace dropped at HeadRate 0 — tail promotion failed")
	}
	if kept.Sampled == "head" {
		t.Fatalf("Sampled = %q, want a tail reason", kept.Sampled)
	}

	slow := rec.Slow()
	if len(slow) == 0 || slow[0].TraceID != traceID {
		t.Fatalf("slow log trace ID = %v, want %s", slow, traceID)
	}
	last := rec.Last(1)
	if len(last) == 0 || last[0].TraceID != traceID {
		t.Fatal("flight record missing trace ID")
	}
	found := false
	for _, ex := range rec.Exemplars() {
		if ex.TraceID == traceID && ex.ID == "req-join" {
			found = true
		}
	}
	if !found {
		t.Fatal("no latency exemplar carries the trace ID")
	}
}

// TestMutateCtxSpans verifies MutateCtx records the apply and invalidation
// decisions as spans of the mutating request.
func TestMutateCtxSpans(t *testing.T) {
	g, err := gen.Community(1000, 3000, gen.DefaultCommunityParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	lg := livegraph.New(g)
	p := New(lg, Config{Workers: 1, CacheEntries: 16})
	defer p.Close()

	// Populate the cache so the invalidation walk has entries to judge.
	lc := graph.LargestComponentNodes(g)
	for i := 0; i < 4; i++ {
		if _, err := p.Do(context.Background(), Request{Query: lc[i], Opt: core.DefaultOptions(measure.PHP, 5)}); err != nil {
			t.Fatal(err)
		}
	}

	tr := trace.New(trace.Config{HeadRate: 1})
	ctx, a, finish := tracedCtx(tr)
	// Pick an endpoint pair with no existing edge (OpAdd rejects duplicates).
	u, v := lc[0], graph.NodeID(0)
	nbrs := map[graph.NodeID]bool{u: true}
	ns, _ := g.Neighbors(u)
	for _, n := range ns {
		nbrs[n] = true
	}
	for _, cand := range lc {
		if !nbrs[cand] {
			v = cand
			break
		}
	}
	if _, err := p.MutateCtx(ctx, []livegraph.EdgeOp{{Op: livegraph.OpAdd, U: u, V: v, W: 1}}); err != nil {
		t.Fatal(err)
	}
	finish("ok")

	kept := tr.Get(a.TraceIDString())
	if kept == nil {
		t.Fatal("mutate trace dropped")
	}
	var gotApply, gotInval bool
	for _, s := range kept.Spans {
		switch s.Name {
		case "livegraph.apply":
			gotApply = true
			var ops, epoch bool
			for _, at := range s.Attrs {
				ops = ops || at.Key == "ops"
				epoch = epoch || at.Key == "epoch"
			}
			if !ops || !epoch {
				t.Errorf("apply span attrs incomplete: %+v", s.Attrs)
			}
		case "qserve.cache.invalidate":
			gotInval = true
		}
	}
	if !gotApply || !gotInval {
		t.Fatalf("mutate spans: apply %v, invalidate %v (spans %v)", gotApply, gotInval, kept.Spans)
	}
}
