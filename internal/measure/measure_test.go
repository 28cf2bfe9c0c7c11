package measure

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/linalg"
)

func tightParams() Params {
	return Params{C: 0.5, L: 10, Tau: 1e-12, MaxIter: 100000}
}

// randomConnected builds a connected random weighted graph for oracle tests.
func randomConnected(t testing.TB, n, extra int, seed int64) *graph.MemGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		// Random spanning tree: attach v to a random earlier node.
		if err := b.AddEdge(int32(v), int32(rng.Intn(v)), 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKindMetadata(t *testing.T) {
	if !PHP.HigherIsCloser() || !EI.HigherIsCloser() || !RWR.HigherIsCloser() {
		t.Error("PHP/EI/RWR should be higher-is-closer")
	}
	if DHT.HigherIsCloser() || THT.HigherIsCloser() {
		t.Error("DHT/THT should be lower-is-closer")
	}
	for _, k := range Kinds() {
		if (k == RWR) != k.HasLocalOptimum() {
			t.Errorf("%v: HasLocalOptimum = %v", k, k.HasLocalOptimum())
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still print")
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"php", PHP}, {"PHP", PHP}, {"ei", EI}, {"Dht", DHT}, {"tht", THT},
		{"rwr", RWR}, {"ppr", RWR}, {"PPR", RWR},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, k := range Kinds() { // every name String prints parses back
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, bad := range []string{"", "nope", "rw", "php "} {
		_, err := ParseKind(bad)
		if err == nil || !strings.Contains(err.Error(), "php|ei|dht|tht|rwr") {
			t.Errorf("ParseKind(%q): err %v, want one listing the accepted names", bad, err)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Params{
		{C: 0, L: 10, Tau: 1e-5, MaxIter: 100},
		{C: 1, L: 10, Tau: 1e-5, MaxIter: 100},
		{C: 0.5, L: 0, Tau: 1e-5, MaxIter: 100},
		{C: 0.5, L: 10, Tau: 0, MaxIter: 100},
		{C: 0.5, L: 10, Tau: 1e-5, MaxIter: 0},
		{C: math.NaN(), L: 10, Tau: 1e-5, MaxIter: 100},
		{C: math.Inf(1), L: 10, Tau: 1e-5, MaxIter: 100},
		{C: 0.5, L: 10, Tau: math.NaN(), MaxIter: 100},
		{C: 0.5, L: 10, Tau: math.Inf(1), MaxIter: 100},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestExactRejectsBadInput(t *testing.T) {
	g := gen.Path(3)
	if _, _, err := Exact(g, 5, PHP, tightParams()); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, _, err := Exact(g, 0, PHP, Params{}); err == nil {
		t.Error("zero params accepted")
	}
	if _, _, err := Exact(g, 0, Kind(42), tightParams()); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestExactPHPWorkedExample: path 1-2-3, q=1, c=0.5 → r = [1, 2/7, 1/7],
// the example under Theorem 3.
func TestExactPHPWorkedExample(t *testing.T) {
	g := gen.WeightedTriangle()
	r, iters, err := Exact(g, 0, PHP, tightParams())
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Error("no iterations reported")
	}
	want := []float64{1, 2.0 / 7, 1.0 / 7}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-10 {
			t.Fatalf("r = %v, want %v", r, want)
		}
	}
}

// densePHPOracle solves (I − cT)r = e_q directly.
func densePHPOracle(t *testing.T, g graph.Graph, q graph.NodeID, c float64) []float64 {
	t.Helper()
	n := g.NumNodes()
	a := linalg.Identity(n)
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == q {
			continue
		}
		d := g.Degree(graph.NodeID(v))
		if d == 0 {
			continue
		}
		nbrs, ws := g.Neighbors(graph.NodeID(v))
		for i, u := range nbrs {
			a.Add(v, int(u), -c*ws[i]/d)
		}
	}
	e := make([]float64, n)
	e[q] = 1
	r, err := linalg.SolveDense(a, e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExactPHPAgainstDense(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnected(t, 25, 30, seed)
		q := graph.NodeID(seed % 25)
		r, _, err := Exact(g, q, PHP, tightParams())
		if err != nil {
			t.Fatal(err)
		}
		want := densePHPOracle(t, g, q, 0.5)
		if d := linalg.InfNorm(r, want); d > 1e-8 {
			t.Fatalf("seed %d: PHP iterative vs dense differ by %g", seed, d)
		}
	}
}

func TestExactRWRIsDistribution(t *testing.T) {
	g := randomConnected(t, 40, 60, 3)
	r, _, err := Exact(g, 7, RWR, tightParams())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range r {
		if v < -1e-12 {
			t.Fatalf("negative RWR mass %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("RWR mass = %g, want 1", sum)
	}
	// The query holds the single largest stationary mass under restart.
	for v, s := range r {
		if graph.NodeID(v) != 7 && s >= r[7] {
			t.Fatalf("node %d mass %g >= query mass %g", v, s, r[7])
		}
	}
}

func TestExactDHTRange(t *testing.T) {
	g := randomConnected(t, 30, 40, 4)
	p := tightParams()
	r, _, err := Exact(g, 0, DHT, p)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 0 {
		t.Fatalf("DHT(q) = %g, want 0", r[0])
	}
	for v, s := range r {
		if v == 0 {
			continue
		}
		if s < 1 || s >= 1/p.C {
			t.Fatalf("DHT[%d] = %g outside [1, 1/c)", v, s)
		}
	}
}

func TestExactTHTRange(t *testing.T) {
	g := gen.Path(20)
	p := tightParams()
	p.L = 5
	r, _, err := Exact(g, 0, THT, p)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 0 {
		t.Fatalf("THT(q) = %g", r[0])
	}
	for v, s := range r {
		if v == 0 {
			continue
		}
		if s < 1 || s > float64(p.L) {
			t.Fatalf("THT[%d] = %g outside [1, L]", v, s)
		}
	}
	// Nodes more than L hops out sit exactly at L (paper's convention).
	for v := p.L + 1; v < 20; v++ {
		if r[v] != float64(p.L) {
			t.Fatalf("THT[%d] = %g, want exactly L=%d", v, r[v], p.L)
		}
	}
	// THT is monotone along a path until the horizon.
	for v := 1; v < p.L; v++ {
		if r[v] >= r[v+1]+1e-12 && r[v+1] != float64(p.L) {
			// allowed: both at L
			if r[v] > float64(p.L)-1e-12 {
				continue
			}
			t.Fatalf("THT not increasing along path: r[%d]=%g r[%d]=%g", v, r[v], v+1, r[v+1])
		}
	}
}

func TestDegreeZeroConventions(t *testing.T) {
	// Graph with an isolated node 3.
	g := graph.MustFromEdges(4, 0, 1, 1, 2)
	p := tightParams()
	php, _, _ := Exact(g, 0, PHP, p)
	if php[3] != 0 {
		t.Errorf("PHP of isolated node = %g, want 0", php[3])
	}
	dht, _, _ := Exact(g, 0, DHT, p)
	if dht[3] != 1/p.C {
		t.Errorf("DHT of isolated node = %g, want 1/c", dht[3])
	}
	tht, _, _ := Exact(g, 0, THT, p)
	if tht[3] != float64(p.L) {
		t.Errorf("THT of isolated node = %g, want L", tht[3])
	}
	rwr, _, _ := Exact(g, 0, RWR, p)
	if rwr[3] != 0 {
		t.Errorf("RWR of isolated node = %g, want 0", rwr[3])
	}
}

// TestTable2NoLocalOptimum verifies the paper's Table 2 on random graphs:
// PHP and EI have no local maximum, DHT and THT no local minimum.
func TestTable2NoLocalOptimum(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomConnected(t, 60, 90, seed)
		q := graph.NodeID(11)
		p := tightParams()
		for _, k := range []Kind{PHP, EI, DHT, THT} {
			r, _, err := Exact(g, q, k, p)
			if err != nil {
				t.Fatal(err)
			}
			if bad := VerifyNoLocalOptimum(g, q, r, k.HigherIsCloser(), 1e-9); bad >= 0 {
				t.Errorf("seed %d: %v has a local optimum at node %d", seed, k, bad)
			}
		}
	}
}

// TestRWRHasLocalOptimum builds a counterexample for Lemma 8 — a hub with
// m leaves hanging off the path at two hops from the query. Since
// RWR(i) ∝ w_i·PHP(i) (Theorem 6), the hub's degree 11 beats the decay paid
// per hop once the restart probability is small: with restart 0.1 (PHP decay
// a = 0.9), w_hub·PHP(hub) = a(m+1)/(m+1−m·a²)·PHP(path) ≈ 3.4·PHP(path) >
// w_path·PHP(path) = 2·PHP(path), so the hub is a local maximum. PHP itself
// must have none at any decay (Lemma 1).
func TestRWRHasLocalOptimum(t *testing.T) {
	// q = 0, path 0-1, 1-2; node 2 is the hub with leaves 3..12.
	b := graph.NewBuilder(13)
	add := func(u, v int32) {
		if err := b.AddUnitEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1)
	add(1, 2)
	for leaf := int32(3); leaf < 13; leaf++ {
		add(2, leaf)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{C: 0.1, L: 10, Tau: 1e-13, MaxIter: 200000}
	rwr, _, err := Exact(g, 0, RWR, p)
	if err != nil {
		t.Fatal(err)
	}
	if bad := VerifyNoLocalOptimum(g, 0, rwr, true, 1e-12); bad != 2 {
		t.Errorf("expected RWR local maximum at hub 2, VerifyNoLocalOptimum = %d", bad)
	}
	php, _, err := Exact(g, 0, PHP, Params{C: 0.9, L: 10, Tau: 1e-13, MaxIter: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if bad := VerifyNoLocalOptimum(g, 0, php, true, 1e-9); bad >= 0 {
		t.Errorf("PHP should have no local maximum, violated at %d", bad)
	}
}

// TestTheorem2RankingEquivalence: PHP (decay 1−c), EI (restart c) and DHT
// give identical rankings.
func TestTheorem2RankingEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnected(t, 30, 40, seed)
		q := graph.NodeID(3)
		c := 0.5
		pPHP := Params{C: 1 - c, L: 10, Tau: 1e-12, MaxIter: 100000}
		pEI := Params{C: c, L: 10, Tau: 1e-12, MaxIter: 100000}
		pDHT := Params{C: c, L: 10, Tau: 1e-12, MaxIter: 100000}
		php, _, err1 := Exact(g, q, PHP, pPHP)
		ei, _, err2 := Exact(g, q, EI, pEI)
		dht, _, err3 := Exact(g, q, DHT, pDHT)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		k := 10
		a := Nodes(TopK(php, q, k, true))
		b := Nodes(TopK(ei, q, k, true))
		d := Nodes(TopK(dht, q, k, false))
		// Exact ties may be ordered differently; compare by score threshold.
		return SameSetModuloTies(b, php, q, k, true, 1e-9) &&
			SameSetModuloTies(d, php, q, k, true, 1e-9) &&
			SameSetModuloTies(a, ei, q, k, true, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem2AffineDHT: PHP = 1 − c·DHT holds pointwise, not just in rank.
func TestTheorem2AffineDHT(t *testing.T) {
	g := randomConnected(t, 25, 35, 7)
	q := graph.NodeID(2)
	c := 0.4
	php, _, err := Exact(g, q, PHP, Params{C: 1 - c, L: 10, Tau: 1e-13, MaxIter: 200000})
	if err != nil {
		t.Fatal(err)
	}
	dht, _, err := Exact(g, q, DHT, Params{C: c, L: 10, Tau: 1e-13, MaxIter: 200000})
	if err != nil {
		t.Fatal(err)
	}
	for v := range php {
		want := 1 - c*dht[v]
		if math.Abs(php[v]-want) > 1e-8 {
			t.Fatalf("node %d: PHP=%g, 1−c·DHT=%g", v, php[v], want)
		}
	}
}

// TestTheorem6RWRProportionality: RWR(i) = κ·w_i·PHP(i) with
// κ = CalibrateRWR, on weighted random graphs.
func TestTheorem6RWRProportionality(t *testing.T) {
	f := func(seed int64) bool {
		g := randomConnected(t, 30, 50, seed)
		q := graph.NodeID(5)
		c := 0.5
		php, _, err := Exact(g, q, PHP, Params{C: 1 - c, L: 10, Tau: 1e-13, MaxIter: 200000})
		if err != nil {
			return false
		}
		rwr, _, err := Exact(g, q, RWR, Params{C: c, L: 10, Tau: 1e-13, MaxIter: 200000})
		if err != nil {
			return false
		}
		kappa := CalibrateRWR(g, php)
		for v := range rwr {
			want := kappa * g.Degree(graph.NodeID(v)) * php[v]
			if math.Abs(rwr[v]-want) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentPHPParams(t *testing.T) {
	p := Params{C: 0.3, L: 10, Tau: 1e-5, MaxIter: 100}
	for _, k := range []Kind{EI, DHT, RWR} {
		q, err := EquivalentPHPParams(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if q.C != 0.7 {
			t.Errorf("%v: C = %g, want 0.7", k, q.C)
		}
	}
	if q, err := EquivalentPHPParams(PHP, p); err != nil || q.C != 0.3 {
		t.Errorf("PHP params changed: %+v, %v", q, err)
	}
	if _, err := EquivalentPHPParams(THT, p); err == nil {
		t.Error("THT translation accepted")
	}
	if _, err := EquivalentPHPParams(Kind(9), p); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestScoreFromPHP(t *testing.T) {
	p := Params{C: 0.5, L: 10, Tau: 1e-5, MaxIter: 100}
	if s, err := ScoreFromPHP(PHP, p, 0.25, 3); err != nil || s != 0.25 {
		t.Errorf("PHP: %g, %v", s, err)
	}
	if s, err := ScoreFromPHP(DHT, p, 0.25, 3); err != nil || s != 1.5 {
		t.Errorf("DHT: got %g, want 1.5", s)
	}
	if s, err := ScoreFromPHP(RWR, p, 0.25, 3); err != nil || s != 0.75 {
		t.Errorf("RWR: got %g, want 0.75", s)
	}
	if _, err := ScoreFromPHP(THT, p, 0.25, 3); err == nil {
		t.Error("THT accepted")
	}
	if _, err := ScoreFromPHP(Kind(9), p, 0.25, 3); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestTopKBasics(t *testing.T) {
	scores := []float64{0.9, 0.5, 0.7, 0.7, 0.1}
	top := TopK(scores, 0, 2, true)
	if len(top) != 2 || top[0].Node != 2 || top[1].Node != 3 {
		t.Fatalf("top = %+v", top)
	}
	low := TopK(scores, 0, 2, false)
	if low[0].Node != 4 || low[1].Node != 1 {
		t.Fatalf("low = %+v", low)
	}
	all := TopK(scores, 0, 100, true)
	if len(all) != 4 {
		t.Fatalf("k > n returns %d", len(all))
	}
}

func TestPrecisionAndSameSet(t *testing.T) {
	a := []graph.NodeID{1, 2, 3}
	b := []graph.NodeID{3, 2, 1}
	c := []graph.NodeID{1, 2, 9}
	if !SameSet(a, b) || SameSet(a, c) {
		t.Error("SameSet wrong")
	}
	if SameSet(a, a[:2]) {
		t.Error("SameSet ignores length")
	}
	if p := Precision(c, a); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("precision = %g", p)
	}
	if p := Precision(nil, nil); p != 1 {
		t.Errorf("empty precision = %g", p)
	}
}

func TestSameSetModuloTies(t *testing.T) {
	scores := []float64{0.9, 0.5, 0.5, 0.3, 0.1}
	// k=2 from node 0: nodes 1 and 2 tie at 0.5; either is acceptable.
	if !SameSetModuloTies([]graph.NodeID{1, 2}, scores, 0, 2, true, 1e-12) {
		t.Error("canonical set rejected")
	}
	if !SameSetModuloTies([]graph.NodeID{2, 1}, scores, 0, 2, true, 1e-12) {
		t.Error("reordered set rejected")
	}
	if SameSetModuloTies([]graph.NodeID{1, 3}, scores, 0, 2, true, 1e-12) {
		t.Error("wrong set accepted")
	}
	if SameSetModuloTies([]graph.NodeID{1}, scores, 0, 2, true, 1e-12) {
		t.Error("short set accepted")
	}
	if SameSetModuloTies([]graph.NodeID{1, 1}, scores, 0, 2, true, 1e-12) {
		t.Error("duplicate accepted")
	}
	if SameSetModuloTies([]graph.NodeID{0, 1}, scores, 0, 2, true, 1e-12) {
		t.Error("query in set accepted")
	}
	// Lower-is-closer direction.
	if !SameSetModuloTies([]graph.NodeID{4, 3}, scores, 0, 2, false, 1e-12) {
		t.Error("lower-direction set rejected")
	}
}
