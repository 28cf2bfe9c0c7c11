package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flos/internal/diskgraph"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// This file pins what a search answers and what it certifies — ranking,
// bit-identical float64 scores, Exact, and the certificate (whether the
// stopping rule passed, its final kth/rest bound keys, each returned node's
// interval) — for every measure, on both graph backends, cold and warm. How
// much work the search did is not pinned here: testdata/work_ledger.json is
// the one place a schedule change moves counts (work_ledger_test.go), and
// this suite only requires every variant of a scenario to do the same work
// as its cold in-memory run. Regenerate (only when a change is MEANT to
// alter the schedule: scores are bound midpoints, so they move with it) with:
//
//	FLOS_UPDATE_GOLDEN=1 go test ./internal/core -run TestGolden
//
// The update refuses to write a scenario whose top-k set is not the
// committed one, unless measure.Exact says the two differ by a tie within
// 1e-7: a schedule change may move bounds, never an answer.

// goldenRanking is one pinned answer and its certificate. Floats are stored
// as IEEE-754 bit patterns so the comparison is exact, not within-epsilon.
type goldenRanking struct {
	Nodes     []int32     `json:"nodes"`
	Scores    []uint64    `json:"score_bits"`
	Certified bool        `json:"certified"`
	Kth       uint64      `json:"kth_bits"`
	Rest      uint64      `json:"rest_bits"`
	Bounds    [][2]uint64 `json:"bound_bits"` // lower, upper; parallel to Nodes
}

type goldenEntry struct {
	Graph   string `json:"graph"`
	Measure string `json:"measure"`
	Query   int32  `json:"query"`
	goldenRanking
	Exact bool `json:"exact"`
}

type goldenUnified struct {
	Graph string        `json:"graph"`
	Query int32         `json:"query"`
	PHP   goldenRanking `json:"php"`
	RWR   goldenRanking `json:"rwr"`
}

type goldenFile struct {
	TopK    []goldenEntry   `json:"topk"`
	Unified []goldenUnified `json:"unified"`
}

const goldenPath = "testdata/golden_equivalence.json"

// goldenGraphs returns the deterministic graph suite the goldens are pinned
// on, in a fixed order. Shapes are chosen to exercise distinct schedules:
// the paper's worked example, random community-ish graphs of two sizes, a
// high-diameter grid, and a barbell (long corridor between dense ends).
func goldenGraphs(t testing.TB) []struct {
	name string
	g    *graph.MemGraph
} {
	return []struct {
		name string
		g    *graph.MemGraph
	}{
		{"paper", gen.PaperExample()},
		{"rand200", randomConnected(t, 200, 420, 7)},
		{"rand500", randomConnected(t, 500, 1000, 2)},
		{"grid", gen.Grid(12, 15)},
		{"barbell", gen.Barbell(18, 24)},
	}
}

func goldenQueries(n int) []graph.NodeID {
	qs := []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(n - 1)}
	out := qs[:0]
	seen := map[graph.NodeID]bool{}
	for _, q := range qs {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func goldenOptions(kind measure.Kind) Options { return testOptions(kind, 8) }

func rankedBits(rs []measure.Ranked) ([]int32, []uint64) {
	nodes := make([]int32, len(rs))
	bits := make([]uint64, len(rs))
	for i, r := range rs {
		nodes[i] = r.Node
		bits[i] = math.Float64bits(r.Score)
	}
	return nodes, bits
}

func rankingOf(rs []measure.Ranked, c Certification) goldenRanking {
	nodes, bits := rankedBits(rs)
	r := goldenRanking{
		Nodes: nodes, Scores: bits,
		Certified: c.Certified, Kth: math.Float64bits(c.KthBound), Rest: math.Float64bits(c.RestBound),
		Bounds: make([][2]uint64, len(c.Bounds)),
	}
	for i, b := range c.Bounds {
		r.Bounds[i] = [2]uint64{math.Float64bits(b.Lower), math.Float64bits(b.Upper)}
	}
	return r
}

// work is the counters every variant of a scenario must agree on.
type work struct{ visited, iterations, sweeps, degreeProbes int }

func workOf(r *Result) work { return work{r.Visited, r.Iterations, r.Sweeps, r.DegreeProbes} }

func unifiedWorkOf(r *UnifiedResult) work {
	return work{r.Visited, r.Iterations, r.Sweeps, r.DegreeProbes}
}

func captureGolden(t *testing.T) goldenFile {
	var gf goldenFile
	for _, gc := range goldenGraphs(t) {
		for _, q := range goldenQueries(gc.g.NumNodes()) {
			for _, kind := range measure.Kinds() {
				res, err := TopKCtx(context.Background(), gc.g, q, goldenOptions(kind))
				if err != nil {
					t.Fatalf("%s/%v/q=%d: %v", gc.name, kind, q, err)
				}
				gf.TopK = append(gf.TopK, goldenEntry{
					Graph: gc.name, Measure: kind.String(), Query: q,
					goldenRanking: rankingOf(res.TopK, res.Certification), Exact: res.Exact,
				})
			}
			ur, err := UnifiedTopKCtx(context.Background(), gc.g, q, goldenOptions(measure.PHP))
			if err != nil {
				t.Fatalf("%s/unified/q=%d: %v", gc.name, q, err)
			}
			gf.Unified = append(gf.Unified, goldenUnified{
				Graph: gc.name, Query: q,
				PHP: rankingOf(ur.TopK, ur.Certification), RWR: rankingOf(ur.RWR, ur.RWRCert),
			})
		}
	}
	return gf
}

// requireSameAnswers is the update path's guard: every scenario of next that
// the committed file old also holds must return the same top-k set, or one
// that measure.Exact accepts as the top-k up to ties within 1e-7.
func requireSameAnswers(t *testing.T, old, next goldenFile) {
	graphs := map[string]*graph.MemGraph{}
	for _, gc := range goldenGraphs(t) {
		graphs[gc.name] = gc.g
	}
	sameSet := func(label, graphName string, q int32, kind measure.Kind, was, now []int32) {
		if measure.SameSet(was, now) {
			return
		}
		opt := goldenOptions(kind)
		oracle := exactScores(t, graphs[graphName], q, kind, opt.Params)
		if !measure.SameSetModuloTies(now, oracle, q, opt.K, kind.HigherIsCloser(), 1e-7) {
			t.Fatalf("%s: refusing to update: top-k set changed beyond a tie\ncommitted %v\nnew       %v", label, was, now)
		}
	}
	type topkID struct {
		graph, measure string
		query          int32
	}
	oldTopK := map[topkID][][]int32{}
	for _, e := range old.TopK {
		id := topkID{e.Graph, e.Measure, e.Query}
		oldTopK[id] = append(oldTopK[id], e.Nodes)
	}
	for _, e := range next.TopK {
		kind, _ := kindByName(e.Measure)
		for _, was := range oldTopK[topkID{e.Graph, e.Measure, e.Query}] {
			sameSet(fmt.Sprintf("%s/%s/q=%d", e.Graph, e.Measure, e.Query), e.Graph, e.Query, kind, was, e.Nodes)
		}
	}
	for _, u := range next.Unified {
		for _, was := range old.Unified {
			if was.Graph == u.Graph && was.Query == u.Query {
				label := fmt.Sprintf("%s/unified/q=%d", u.Graph, u.Query)
				sameSet(label+"/php", u.Graph, u.Query, measure.PHP, was.PHP.Nodes, u.PHP.Nodes)
				sameSet(label+"/rwr", u.Graph, u.Query, measure.RWR, was.RWR.Nodes, u.RWR.Nodes)
			}
		}
	}
}

// requireGolden compares one answer and certificate against the pin.
func requireGolden(t *testing.T, label string, want, got goldenRanking) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: drifted from golden\nwant %+v\ngot  %+v", label, want, got)
	}
}

// diskVariant writes g to a disk store and opens it with a small pinned-row
// budget, so the engine runs the defensive-copy (unstable neighbors) path.
func diskVariant(t *testing.T, g *graph.MemGraph) graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.flos")
	if err := diskgraph.Create(path, g, 4096); err != nil {
		t.Fatal(err)
	}
	st, err := diskgraph.Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestGoldenEquivalence replays every pinned scenario on both backends,
// cold and through a reused warm Workspace, and requires byte-identical
// answers and certificates against the goldens, and identical work counters
// across the variants.
func TestGoldenEquivalence(t *testing.T) {
	if os.Getenv("FLOS_UPDATE_GOLDEN") != "" {
		gf := captureGolden(t)
		if old, err := os.ReadFile(goldenPath); err == nil {
			var committed goldenFile
			if err := json.Unmarshal(old, &committed); err != nil {
				t.Fatal(err)
			}
			requireSameAnswers(t, committed, gf)
		}
		buf, err := json.MarshalIndent(gf, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d topk + %d unified scenarios", len(gf.TopK), len(gf.Unified))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run with FLOS_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(buf, &gf); err != nil {
		t.Fatal(err)
	}

	graphs := map[string]*graph.MemGraph{}
	for _, gc := range goldenGraphs(t) {
		graphs[gc.name] = gc.g
	}
	disks := map[string]graph.Graph{}
	for name, g := range graphs {
		disks[name] = diskVariant(t, g)
	}
	memWS := map[string]*Workspace{}
	diskWS := map[string]*Workspace{}
	for name := range graphs {
		memWS[name] = NewWorkspace()
		diskWS[name] = NewWorkspace()
	}

	ctx := context.Background()
	for _, want := range gf.TopK {
		kind, ok := kindByName(want.Measure)
		if !ok {
			t.Fatalf("golden names unknown measure %q", want.Measure)
		}
		opt := goldenOptions(kind)
		label := fmt.Sprintf("%s/%s/q=%d", want.Graph, want.Measure, want.Query)
		// With the span-tracing observation hook attached, neither results
		// nor schedule may move by a bit — the tracer observes, never steers.
		topt := opt
		topt.Tracer = &TraceCollector{}
		mem, disk := graphs[want.Graph], disks[want.Graph]

		var cold work
		for i, v := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"mem-cold", func() (*Result, error) { return TopKCtx(ctx, mem, want.Query, opt) }},
			{"mem-warm", func() (*Result, error) { return memWS[want.Graph].TopK(ctx, mem, want.Query, opt) }},
			{"mem-warm-traced", func() (*Result, error) { return memWS[want.Graph].TopK(ctx, mem, want.Query, topt) }},
			{"disk-cold", func() (*Result, error) { return TopKCtx(ctx, disk, want.Query, opt) }},
			{"disk-warm", func() (*Result, error) { return diskWS[want.Graph].TopK(ctx, disk, want.Query, opt) }},
		} {
			res, err := v.run()
			if err != nil {
				t.Fatal(err)
			}
			requireGolden(t, label+"/"+v.name, want.goldenRanking, rankingOf(res.TopK, res.Certification))
			if res.Exact != want.Exact {
				t.Fatalf("%s/%s: exact = %v, golden %v", label, v.name, res.Exact, want.Exact)
			}
			if i == 0 {
				cold = workOf(res)
			} else if got := workOf(res); got != cold {
				t.Fatalf("%s/%s: work %+v, mem-cold did %+v", label, v.name, got, cold)
			}
		}
	}

	for _, want := range gf.Unified {
		opt := goldenOptions(measure.PHP)
		label := fmt.Sprintf("%s/unified/q=%d", want.Graph, want.Query)
		topt := opt
		topt.Tracer = &TraceCollector{}
		mem, disk := graphs[want.Graph], disks[want.Graph]

		var cold work
		for i, v := range []struct {
			name string
			run  func() (*UnifiedResult, error)
		}{
			{"mem-cold", func() (*UnifiedResult, error) { return UnifiedTopKCtx(ctx, mem, want.Query, opt) }},
			{"mem-warm", func() (*UnifiedResult, error) { return memWS[want.Graph].Unified(ctx, mem, want.Query, opt) }},
			{"mem-warm-traced", func() (*UnifiedResult, error) { return memWS[want.Graph].Unified(ctx, mem, want.Query, topt) }},
			{"disk-warm", func() (*UnifiedResult, error) { return diskWS[want.Graph].Unified(ctx, disk, want.Query, opt) }},
		} {
			ur, err := v.run()
			if err != nil {
				t.Fatal(err)
			}
			requireGolden(t, label+"/"+v.name+"/php", want.PHP, rankingOf(ur.TopK, ur.Certification))
			requireGolden(t, label+"/"+v.name+"/rwr", want.RWR, rankingOf(ur.RWR, ur.RWRCert))
			if i == 0 {
				cold = unifiedWorkOf(ur)
			} else if got := unifiedWorkOf(ur); got != cold {
				t.Fatalf("%s/%s: work %+v, mem-cold did %+v", label, v.name, got, cold)
			}
		}
	}
}

func kindByName(s string) (measure.Kind, bool) {
	for _, k := range measure.Kinds() {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}
