package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// copyGraph wraps a MemGraph but hides its StableNeighbors capability, so
// the engine must take the defensive-copy path — the same mode disk-backed
// graphs use. It lets the reuse tests exercise stable→copy→stable workspace
// transitions without building a disk store.
type copyGraph struct{ g *graph.MemGraph }

func (c copyGraph) NumNodes() int   { return c.g.NumNodes() }
func (c copyGraph) NumEdges() int64 { return c.g.NumEdges() }
func (c copyGraph) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	return c.g.Neighbors(v)
}
func (c copyGraph) Degree(v graph.NodeID) float64        { return c.g.Degree(v) }
func (c copyGraph) TopDegrees(k int) []graph.DegreeEntry { return c.g.TopDegrees(k) }

// requireSameResult compares two results field by field, work counters
// included — Querier reuse must be indistinguishable from a fresh call.
func requireSameResult(t *testing.T, label string, fresh, reused *Result) {
	t.Helper()
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("%s: reused workspace diverged from fresh call\nfresh:  %+v\nreused: %+v", label, fresh, reused)
	}
}

// TestQuerierMatchesFreshTopK is the reuse-equivalence test: the same query
// answered through one long-lived Querier — including warm repeats — must be
// deep-equal to a fresh one-shot TopK, for every measure, on the paper graph
// and a larger random community-like graph.
func TestQuerierMatchesFreshTopK(t *testing.T) {
	graphs := []struct {
		name string
		g    graph.Graph
	}{
		{"paper", gen.PaperExample()},
		{"random", randomConnected(t, 200, 420, 7)},
		{"copy-mode", copyGraph{g: randomConnected(t, 120, 240, 11)}},
	}
	for _, tc := range graphs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.NumNodes()
			for _, kind := range measure.Kinds() {
				opt := testOptions(kind, 5)
				qr, err := NewQuerier(tc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 3; pass++ { // pass 0 cold, 1..2 warm
					for _, q := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
						fresh, err := TopK(tc.g, q, opt)
						if err != nil {
							t.Fatalf("%v q=%d: fresh: %v", kind, q, err)
						}
						reused, err := qr.TopK(context.Background(), q)
						if err != nil {
							t.Fatalf("%v q=%d pass=%d: querier: %v", kind, q, pass, err)
						}
						requireSameResult(t, fmt.Sprintf("%v q=%d pass=%d", kind, q, pass), fresh, reused)
					}
				}
			}
		})
	}
}

// TestQuerierUnifiedMatchesFresh checks the unified two-family path under
// workspace reuse.
func TestQuerierUnifiedMatchesFresh(t *testing.T) {
	g := randomConnected(t, 150, 300, 3)
	opt := testOptions(measure.PHP, 5)
	qr, err := NewQuerier(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, q := range []graph.NodeID{1, 70, 149} {
			fresh, err := UnifiedTopK(g, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := qr.Unified(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("q=%d pass=%d: unified reuse diverged\nfresh:  %+v\nreused: %+v", q, pass, fresh, reused)
			}
		}
	}
}

// TestWorkspaceStableCopyTransition drives one workspace back and forth
// between a stable-slices graph (MemGraph, adjacency aliased) and a
// copy-mode graph. If reset failed to drop the aliased rows, the copy path
// would append into the previous graph's CSR arrays; the fresh-call
// comparison (and -race) would catch the corruption.
func TestWorkspaceStableCopyTransition(t *testing.T) {
	mem := randomConnected(t, 100, 200, 5)
	cp := copyGraph{g: randomConnected(t, 100, 200, 6)}
	ws := NewWorkspace()
	opt := testOptions(measure.RWR, 4)
	for round := 0; round < 3; round++ {
		for _, tc := range []struct {
			name string
			g    graph.Graph
		}{{"stable", mem}, {"copy", cp}} {
			q := graph.NodeID(13 * (round + 1) % 100)
			fresh, err := TopK(tc.g, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := ws.TopK(context.Background(), tc.g, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("round=%d %s", round, tc.name), fresh, reused)
		}
	}
	// The stable graph's CSR must be untouched after the copy-mode rounds.
	check, err := TopK(mem, 13, opt)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := ws.TopK(context.Background(), mem, 13, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-transition", check, reused)
}

// TestQuerierConcurrentStress hammers one Querier from many goroutines and
// checks every answer against a fresh baseline. Run with -race this is the
// workspace-isolation test: two queries must never share engine state.
func TestQuerierConcurrentStress(t *testing.T) {
	g := randomConnected(t, 150, 300, 9)
	opt := testOptions(measure.PHP, 5)
	baseline := make([]*Result, g.NumNodes())
	for q := range baseline {
		r, err := TopK(g, graph.NodeID(q), opt)
		if err != nil {
			t.Fatal(err)
		}
		baseline[q] = r
	}
	qr, err := NewQuerier(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 60
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := graph.NodeID((w*31 + i*7) % g.NumNodes())
				got, err := qr.TopK(context.Background(), q)
				if err != nil {
					errCh <- fmt.Errorf("q=%d: %w", q, err)
					return
				}
				if !reflect.DeepEqual(baseline[q], got) {
					errCh <- fmt.Errorf("q=%d: concurrent result diverged from baseline", q)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestWarmPathAllocCeiling is the allocation-regression smoke: a warm
// Querier answering a top-20 query on the community graph must stay under a
// committed allocs/op ceiling, for each engine and for the RWR path through
// the PHP engine. A bare TopK on the same query pays hundreds of allocations
// (index maps, bound slices, row matrix); the warm path only pays for the
// Result it hands back.
func TestWarmPathAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	g, err := gen.Community(5000, 25000, gen.CommunityParamsForDensity(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = graph.NodeID(2500)
	for _, kind := range []measure.Kind{measure.PHP, measure.RWR, measure.THT} {
		qr, err := NewQuerier(g, DefaultOptions(kind, 20))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // warm the pooled workspace
			if _, err := qr.TopK(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := qr.TopK(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
		// The warm path should allocate only the returned Result and its
		// ranking slices (plus a couple of sort closures). The ceiling is set
		// loosely above the observed cost so only a real regression — e.g. a
		// per-query map or bound-slice rebuild, or a scratch queue that sheds
		// its capacity — trips it.
		const ceiling = 64
		if allocs > ceiling {
			t.Errorf("%v: warm Querier.TopK allocates %.0f objects/op, ceiling %d", kind, allocs, ceiling)
		}
		t.Logf("%v: warm Querier.TopK: %.1f allocs/op (ceiling %d)", kind, allocs, ceiling)
	}
}

// TestQuerierReleaseTrims: a Querier runs Workspace.Trim before it returns
// a workspace to its pool. A search over WorkspaceCap (exact THT top-200
// over 6,000 nodes) leaves a pooled workspace under the cap that keeps the
// node index's backing array; on the exact top-200 shape (Erdős
// G(2,000, 10,000), seed 11, PHP, RWR and THT in turn) the workspace is
// never trimmed. The workspace is taken from the pool once and handed to
// put directly, so the test does not depend on what sync.Pool keeps.
func TestQuerierReleaseTrims(t *testing.T) {
	ctx := context.Background()
	t.Run("over the cap", func(t *testing.T) {
		g, err := gen.Erdos(6000, 30000, 11)
		if err != nil {
			t.Fatal(err)
		}
		qr, err := NewQuerier(g, DefaultOptions(measure.THT, 200))
		if err != nil {
			t.Fatal(err)
		}
		w := qr.pool.Get().(*querierWS)
		if _, err := w.ws.TopK(ctx, w.g, 100, qr.opt); err != nil {
			t.Fatal(err)
		}
		ws, x := w.ws, *w.ws.index()
		qr.put(w)
		if w.ws == ws {
			t.Fatalf("a workspace that used %d bytes went back untrimmed", ws.UsedBytes())
		}
		if used := w.ws.UsedBytes(); used > WorkspaceCap {
			t.Fatalf("the pooled workspace keeps %d bytes in use, cap %d", used, WorkspaceCap)
		}
		if y := w.ws.index(); y == nil || &y.gen[0] != &x.gen[0] || &y.idx[0] != &x.idx[0] {
			t.Fatal("the trimmed workspace lost the node index")
		}
	})
	t.Run("exact top-200 shape", func(t *testing.T) {
		g, err := gen.Erdos(2000, 10000, 11)
		if err != nil {
			t.Fatal(err)
		}
		var qrs [3]*Querier
		for i, kind := range []measure.Kind{measure.PHP, measure.RWR, measure.THT} {
			if qrs[i], err = NewQuerier(g, DefaultOptions(kind, 200)); err != nil {
				t.Fatal(err)
			}
		}
		w := qrs[0].pool.Get().(*querierWS)
		ws := w.ws
		for i := range 12 {
			qr := qrs[i%3]
			if _, err := w.ws.TopK(ctx, w.g, graph.NodeID(37*i%2000), qr.opt); err != nil {
				t.Fatal(err)
			}
			qr.put(w)
			if w.ws != ws {
				t.Fatalf("query %d: the workspace was trimmed on the exact top-200 shape", i)
			}
		}
	})
}
