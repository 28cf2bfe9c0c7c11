package core

import (
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

func TestUnifiedMatchesSeparateRuns(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomConnected(t, 100, 180, seed)
		q := graph.NodeID(int(seed*19) % 100)
		opt := testOptions(measure.PHP, 7)
		uni, err := UnifiedTopK(g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !uni.Exact {
			t.Fatal("unified result not exact")
		}

		php := exactScores(t, g, q, measure.PHP, opt.Params)
		if !measure.SameSetModuloTies(measure.Nodes(uni.TopK), php, q, 7, true, 1e-7) {
			t.Errorf("seed %d: unified PHP-family set wrong", seed)
		}
		rwrParams := opt.Params
		rwrParams.C = 1 - opt.Params.C
		rwr := exactScores(t, g, q, measure.RWR, rwrParams)
		if !measure.SameSetModuloTies(measure.Nodes(uni.RWR), rwr, q, 7, true, 1e-8) {
			t.Errorf("seed %d: unified RWR set wrong", seed)
		}

		// Shared search: visited at most the sum of the two separate runs
		// (it is their union plus batching slack).
		sep1, err := TopK(g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		optR := opt
		optR.Measure = measure.RWR
		optR.Params.C = 1 - opt.Params.C
		sep2, err := TopK(g, q, optR)
		if err != nil {
			t.Fatal(err)
		}
		if uni.Visited > sep1.Visited+sep2.Visited+50 {
			t.Errorf("seed %d: unified visited %d vs separate %d+%d",
				seed, uni.Visited, sep1.Visited, sep2.Visited)
		}
	}
}

func TestUnifiedSmallComponent(t *testing.T) {
	g := graph.MustFromEdges(5, 0, 1, 1, 2, 3, 4)
	uni, err := UnifiedTopK(g, 0, testOptions(measure.PHP, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !measure.SameSet(measure.Nodes(uni.TopK), []graph.NodeID{1, 2}) {
		t.Fatalf("PHP family = %v", measure.Nodes(uni.TopK))
	}
	if !measure.SameSet(measure.Nodes(uni.RWR), []graph.NodeID{1, 2}) {
		t.Fatalf("RWR = %v", measure.Nodes(uni.RWR))
	}
}

func TestUnifiedValidation(t *testing.T) {
	g := gen.Path(4)
	if _, err := UnifiedTopK(g, 9, testOptions(measure.PHP, 2)); err == nil {
		t.Error("bad query accepted")
	}
	bad := testOptions(measure.PHP, 0)
	if _, err := UnifiedTopK(g, 0, bad); err == nil {
		t.Error("bad options accepted")
	}
}

func TestUnifiedMaxVisited(t *testing.T) {
	g := randomConnected(t, 400, 800, 3)
	opt := testOptions(measure.PHP, 20)
	opt.MaxVisited = 25
	uni, err := UnifiedTopK(g, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Exact {
		t.Error("capped unified run claims exactness")
	}
	if len(uni.TopK) != 20 || len(uni.RWR) != 20 {
		t.Errorf("result lengths %d/%d", len(uni.TopK), len(uni.RWR))
	}
}
