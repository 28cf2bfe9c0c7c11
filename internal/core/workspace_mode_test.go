package core

// Workspace reuse across mode switches: one Workspace must serve
// exact → ε → anytime queries back to back, with every warm answer equal to
// the same query run cold. The hazards these tests pin:
//
//   - the generation-stamped dense index arrays must invalidate across
//     switches (a stale stamp would leak visited-set membership between
//     queries that stop at different points under different modes), across
//     the generation counter's wraparound, and across graphs of different
//     sizes;
//   - the warm-path allocation ceiling: solver state lives on the engine and
//     is reused, so a warm query allocates only the Result it returns.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// requireSameBits holds two results to full bit equality: ranking, score
// bits, work counters and flags.
func requireSameBits(t *testing.T, label string, want, got *Result) {
	t.Helper()
	wn, wb := rankedBits(want.TopK)
	gn, gb := rankedBits(got.TopK)
	if fmt.Sprint(wn) != fmt.Sprint(gn) || fmt.Sprint(wb) != fmt.Sprint(gb) {
		t.Fatalf("%s: ranking/scores differ\nwant %v %v\ngot  %v %v", label, wn, wb, gn, gb)
	}
	if want.Visited != got.Visited || want.Iterations != got.Iterations || want.Sweeps != got.Sweeps {
		t.Fatalf("%s: counters differ: want {v:%d it:%d sw:%d} got {v:%d it:%d sw:%d}",
			label, want.Visited, want.Iterations, want.Sweeps, got.Visited, got.Iterations, got.Sweeps)
	}
	if want.Exact != got.Exact || want.Certification.Certified != got.Certification.Certified {
		t.Fatalf("%s: flags differ: want exact=%v cert=%v, got exact=%v cert=%v",
			label, want.Exact, want.Certification.Certified, got.Exact, got.Certification.Certified)
	}
}

// TestWorkspaceKernelModeSwitch drives one Workspace through the mode grid
// twice and requires every warm result to match the cold run of the same
// options bit for bit.
func TestWorkspaceKernelModeSwitch(t *testing.T) {
	g := randomConnected(t, 400, 900, 11)
	ws := NewWorkspace()
	ctx := context.Background()
	modes := []Mode{ModeExact, ModeEpsilon, ModeAnytime}

	// Two passes over the grid: the second pass reuses state the first left
	// behind in every mode.
	for pass := 0; pass < 2; pass++ {
		for mi, mode := range modes {
			q := graph.NodeID((37*mi + 100*pass) % g.NumNodes())
			opt := testOptions(measure.RWR, 8)
			opt.Mode = mode
			if mode == ModeEpsilon {
				opt.Epsilon = 1e-4
			}
			label := fmt.Sprintf("pass=%d mode=%v q=%d", pass, mode, q)

			warm, err := ws.TopK(ctx, g, q, opt)
			if err != nil {
				t.Fatalf("%s warm: %v", label, err)
			}
			cold, err := TopKCtx(ctx, g, q, opt)
			if err != nil {
				t.Fatalf("%s cold: %v", label, err)
			}
			requireSameBits(t, label, cold, warm)
		}
	}
}

// TestWorkspaceKernelAllocCeiling checks the warm allocation ceiling on a
// bare Workspace (TestWarmPathAllocCeiling covers the Querier's pooled
// path): once a few queries have grown the engine's slices, a warm query
// must allocate only the Result it returns.
func TestWorkspaceKernelAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	g, err := gen.Community(5000, 25000, gen.CommunityParamsForDensity(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	ctx := context.Background()
	const q = graph.NodeID(2500)
	opt := DefaultOptions(measure.PHP, 20)

	for i := 0; i < 3; i++ {
		if _, err := ws.TopK(ctx, g, q, opt); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.TopK(ctx, g, q, opt); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 64
	if allocs > ceiling {
		t.Fatalf("warm TopK allocates %.0f objects/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("warm TopK: %.1f allocs/op (ceiling %d)", allocs, ceiling)
}

// requireSameAsFresh runs one query of kind (or a unified one) in ws and in a
// fresh Workspace and requires the two answers to be deep-equal: rankings,
// score bits, certificates, work counters and read footprints.
func requireSameAsFresh(t *testing.T, label string, ws *Workspace, g graph.Graph, q graph.NodeID, kind measure.Kind, unified bool) {
	t.Helper()
	ctx := context.Background()
	opt := testOptions(kind, 6)
	opt.CaptureFootprint = true
	var got, want any
	var err1, err2 error
	if unified {
		got, err1 = ws.Unified(ctx, g, q, opt)
		want, err2 = NewWorkspace().Unified(ctx, g, q, opt)
	} else {
		got, err1 = ws.TopK(ctx, g, q, opt)
		want, err2 = NewWorkspace().TopK(ctx, g, q, opt)
	}
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: reused %v, fresh %v", label, err1, err2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reused workspace diverged from a fresh one\nfresh:  %+v\nreused: %+v", label, want, got)
	}
}

// indexesOf returns the node indexes ws's engines hold: a workspace keeps
// exactly one once it has run a search, in the engine that ran last.
func indexesOf(ws *Workspace) []*nodeIndex {
	var out []*nodeIndex
	if ws.php != nil && ws.php.local.gen != nil {
		out = append(out, &ws.php.local)
	}
	if ws.tht != nil && ws.tht.local.gen != nil {
		out = append(out, &ws.tht.local)
	}
	return out
}

// requireOneIndex fails unless ws holds exactly one node index, sized to n
// nodes and owned by the engine want.
func requireOneIndex(t *testing.T, label string, ws *Workspace, n int, want *nodeIndex) *nodeIndex {
	t.Helper()
	xs := indexesOf(ws)
	if len(xs) != 1 {
		t.Fatalf("%s: workspace holds %d node indexes, want 1", label, len(xs))
	}
	if x := xs[0]; x != want || len(x.gen) != n || len(x.idx) != n {
		t.Fatalf("%s: index in the wrong engine or sized to %d/%d nodes, want %d", label, len(x.idx), len(x.gen), n)
	}
	return xs[0]
}

// TestWorkspaceGenerationWrap: with the dense index the only index, the
// wraparound of its generation counter is its only full clear. The PHP and
// THT engines share one index, moved to whichever runs, so after PHP → THT
// → PHP a workspace holds one n-sized index at generation 3. At the last
// generation it must wrap on the next query, re-zero the stamps both
// engines' first queries left at generations 1–3, and answer PHP, RWR, THT
// and unified queries bit-identically to a fresh Workspace; so must one
// that moves to a larger graph and back.
func TestWorkspaceGenerationWrap(t *testing.T) {
	small := randomConnected(t, 150, 320, 5)
	large := randomConnected(t, 400, 900, 9)
	type query struct {
		kind    measure.Kind
		unified bool
	}
	queries := []query{{measure.PHP, false}, {measure.RWR, false}, {measure.THT, false}, {measure.PHP, true}}

	t.Run("wrap", func(t *testing.T) {
		ws := NewWorkspace()
		// Generations 1–3 stamp the nodes these queries visit.
		for _, kind := range []measure.Kind{measure.PHP, measure.THT, measure.PHP} {
			if _, err := ws.TopK(context.Background(), small, 3, testOptions(kind, 6)); err != nil {
				t.Fatal(err)
			}
		}
		x := requireOneIndex(t, "after PHP, THT, PHP", ws, small.NumNodes(), &ws.php.local)
		if x.cur != 3 {
			t.Fatalf("first queries ended at generation %d, want 3", x.cur)
		}
		x.cur = math.MaxUint32
		for pass, q := range []graph.NodeID{3, 70, 149} {
			for _, qu := range queries {
				requireSameAsFresh(t, fmt.Sprintf("q=%d %v unified=%v", q, qu.kind, qu.unified), ws, small, q, qu.kind, qu.unified)
			}
			x := requireOneIndex(t, fmt.Sprintf("pass %d", pass), ws, small.NumNodes(), &ws.php.local)
			if pass == 0 && x.cur != 4 {
				t.Fatalf("after the wrap the generation is %d, want 4", x.cur)
			}
		}
	})

	t.Run("resize", func(t *testing.T) {
		ws := NewWorkspace()
		for step, g := range []*graph.MemGraph{small, large, small, large} {
			for _, q := range []graph.NodeID{3, 149} {
				for _, qu := range queries {
					requireSameAsFresh(t, fmt.Sprintf("step %d n=%d q=%d %v unified=%v", step, g.NumNodes(), q, qu.kind, qu.unified), ws, g, q, qu.kind, qu.unified)
				}
			}
		}
		requireOneIndex(t, "after resizing", ws, large.NumNodes(), &ws.php.local)
	})
}
