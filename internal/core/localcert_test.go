package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// requireLocalCert re-proves one PHP-family answer with measure.CheckLocal,
// the checker that shares no code with the engine, at the slack the search
// certified with: TieEps, widened to ε in ModeEpsilon.
func requireLocalCert(t testing.TB, label string, g graph.Graph, q graph.NodeID, kind measure.Kind, opt Options, visited []graph.NodeID, top []measure.Ranked) {
	t.Helper()
	slack := TieEps
	if opt.Mode == ModeEpsilon {
		slack = max(slack, opt.Epsilon)
	}
	if _, err := measure.CheckLocal(g, q, kind, opt.Params, visited, measure.Nodes(top), slack); err != nil {
		t.Fatalf("%s: local certificate refused: %v", label, err)
	}
}

// TestLocalCertificates runs the local checker on every PHP-family case of
// the oracle slice — TestBatchedStepsMatchOracle's shapes, measures, k and
// modes, and the searches of TestBoundsMonotoneAndValid's table, unified
// ones included — and on the ε rows of the work ledger. THT answers are not
// PHP-family and have no local certificate.
func TestLocalCertificates(t *testing.T) {
	for _, gc := range oracleGraphs(t) {
		lc := graph.LargestComponentNodes(gc.g)
		q := lc[len(lc)/2]
		for _, kind := range []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.RWR} {
			for _, k := range []int{10, 100} {
				for _, eps := range []float64{0, 1e-3} {
					opt := testOptions(kind, k)
					if eps > 0 {
						opt.Mode, opt.Epsilon = ModeEpsilon, eps
					}
					opt.CaptureFootprint = true
					res, err := TopK(gc.g, q, opt)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/%v/k=%d/eps=%g", gc.name, kind, k, eps)
					requireLocalCert(t, label, gc.g, q, kind, opt, res.VisitedNodes, res.TopK)
				}
			}
		}
	}
	for _, bg := range boundGraphs(t) {
		for _, eps := range []float64{0, 1e-3} {
			for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
				opt := testOptions(kind, 10)
				if eps > 0 {
					opt.Mode, opt.Epsilon = ModeEpsilon, eps
				}
				opt.CaptureFootprint = true
				res, err := TopK(bg.g, bg.q, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireLocalCert(t, fmt.Sprintf("%s/%v/eps=%g", bg.name, kind, eps), bg.g, bg.q, kind, opt, res.VisitedNodes, res.TopK)
			}
			opt := testOptions(measure.PHP, 10)
			if eps > 0 {
				opt.Mode, opt.Epsilon = ModeEpsilon, eps
			}
			opt.CaptureFootprint = true
			ur, err := UnifiedTopK(bg.g, bg.q, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/unified/eps=%g", bg.name, eps)
			requireLocalCert(t, label+"/php", bg.g, bg.q, measure.PHP, opt, ur.VisitedNodes, ur.TopK)
			requireLocalCert(t, label+"/rwr", bg.g, bg.q, measure.RWR, opt, ur.VisitedNodes, ur.RWR)
		}
	}
	// The work ledger's ε rows (work_ledger_test.go), with the ledger's
	// default options.
	eps, err := gen.Erdos(20000, 200000, 13)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, v := range rand.New(rand.NewSource(1)).Perm(eps.NumNodes()) {
		if n < 8 && eps.NumNeighbors(graph.NodeID(v)) > 0 {
			for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
				opt := DefaultOptions(kind, 10)
				opt.Mode, opt.Epsilon, opt.CaptureFootprint = ModeEpsilon, 1e-3, true
				res, err := TopKCtx(context.Background(), eps, graph.NodeID(v), opt)
				if err != nil {
					t.Fatal(err)
				}
				requireLocalCert(t, fmt.Sprintf("ledger/%v/q=%d", kind, v), eps, graph.NodeID(v), kind, opt, res.VisitedNodes, res.TopK)
			}
			n++
		}
	}
}

// fuzzGraph decodes a small weighted graph from data: a node count, then
// three bytes per edge — its ends and a weight code. The code spans 1e-9 to
// ~4, so near-zero weights are common; self-loops and parallel edges are
// kept as drawn (FromCSR keeps what a Builder would merge), and nodes no edge
// reaches make disconnected pieces.
func fuzzGraph(data []byte) (*graph.MemGraph, bool) {
	if len(data) < 4 {
		return nil, false
	}
	n := 2 + int(data[0])%30
	type half struct {
		v graph.NodeID
		w float64
	}
	adj := make([][]half, n)
	for i := 1; i+2 < len(data) && i < 1+3*120; i += 3 {
		u, v := int(data[i])%n, int(data[i+1])%n
		w := math.Pow(10, float64(data[i+2])/255*9.6-9)
		adj[u] = append(adj[u], half{graph.NodeID(v), w})
		if u != v {
			adj[v] = append(adj[v], half{graph.NodeID(u), w})
		}
	}
	offsets := make([]int64, n+1)
	var targets []graph.NodeID
	var weights []float64
	for v := range adj {
		for _, h := range adj[v] {
			targets = append(targets, h.v)
			weights = append(weights, h.w)
		}
		offsets[v+1] = int64(len(targets))
	}
	g, err := graph.FromCSR(offsets, targets, weights)
	return g, err == nil
}

// FuzzTopKCertified: on any small weighted graph, PHP and RWR answers in
// exact and ε mode are re-proved by the local checker and are the top-k of
// measure.Exact up to the certified gap.
func FuzzTopKCertified(f *testing.F) {
	f.Add([]byte{8, 0, 1, 200, 1, 2, 200, 2, 3, 10, 3, 0, 255, 4, 4, 128, 5, 6, 0, 1, 2, 100})
	f.Add([]byte{20, 0, 1, 255, 0, 1, 255, 0, 2, 0, 2, 3, 90, 3, 4, 91, 4, 5, 92, 7, 8, 200, 9, 9, 30})
	f.Add([]byte{29, 0, 5, 180, 5, 9, 170, 9, 14, 160, 14, 0, 150, 3, 5, 40, 3, 9, 40, 3, 14, 40, 20, 21, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := fuzzGraph(data)
		if !ok {
			return
		}
		q := graph.NodeID(int(data[len(data)-1]) % g.NumNodes())
		for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
			for _, eps := range []float64{0, 1e-3} {
				opt := testOptions(kind, 1+int(data[0])%4)
				if eps > 0 {
					opt.Mode, opt.Epsilon = ModeEpsilon, eps
				}
				opt.CaptureFootprint = true
				res, err := TopK(g, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/eps=%g/q=%d/k=%d", kind, eps, q, opt.K)
				requireLocalCert(t, label, g, q, kind, opt, res.VisitedNodes, res.TopK)
				oracle := displayOracle(t, g, q, kind, opt.Params)
				slack := displaySlack(kind, opt.Params, res.Certification.Gap) + 1e-7
				if !measure.SameSetModuloTies(measure.Nodes(res.TopK), oracle, q, len(res.TopK), true, slack) {
					t.Fatalf("%s: top-k %v differs from the oracle's beyond the certified gap %g", label, measure.Nodes(res.TopK), res.Certification.Gap)
				}
			}
		}
	})
}
