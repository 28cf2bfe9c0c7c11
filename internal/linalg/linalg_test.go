package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRowMatrixBasics(t *testing.T) {
	m := NewRowMatrix(2)
	if len(m.Rows) != 2 {
		t.Fatalf("NewRowMatrix(2) has %d rows", len(m.Rows))
	}
	m.Append(0, 1, 0.5)
	if r := m.AddRow(); r != 2 {
		t.Fatalf("AddRow = %d, want 2", r)
	}
	m.Append(0, 0, 0.25)
	m.Append(2, 1, 1)
	want := [][]Entry{{{Col: 1, Val: 0.5}, {Col: 0, Val: 0.25}}, nil, {{Col: 1, Val: 1}}}
	if !reflect.DeepEqual(m.Rows, want) {
		t.Fatalf("rows = %v, want %v", m.Rows, want)
	}
	out := make([]float64, 3)
	m.MulVecAdd(2, []float64{1, 2, 3}, []float64{1, 0, 0}, out)
	if want := []float64{1 + 2*(0.5*2+0.25*1), 0, 2 * 2}; !reflect.DeepEqual(out, want) {
		t.Fatalf("MulVecAdd = %v, want %v", out, want)
	}
}

// TestFixedPointAgainstDense: the Jacobi solver must agree with a direct
// dense solve of (I - cM) r = e.
func TestFixedPointAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(20)
		m := NewRowMatrix(n)
		a := Identity(n)
		c := 0.5 + 0.4*rng.Float64()
		for i := 0; i < n; i++ {
			// Random sub-stochastic row.
			k := 1 + rng.Intn(3)
			rem := 1.0
			for j := 0; j < k; j++ {
				col := int32(rng.Intn(n))
				v := rem * rng.Float64() * 0.9
				rem -= v
				m.Append(int32(i), col, v)
			}
		}
		for i := 0; i < n; i++ {
			for _, e := range m.Rows[i] {
				a.Add(i, int(e.Col), -c*e.Val)
			}
		}
		e := make([]float64, n)
		e[0] = 1
		want, err := SolveDense(a, e)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		iters := m.FixedPoint(c, e, got, 1e-12, 10000)
		if iters >= 10000 {
			t.Fatalf("trial %d: no convergence", trial)
		}
		if d := InfNorm(got, want); d > 1e-9 {
			t.Fatalf("trial %d: jacobi vs dense differ by %g", trial, d)
		}
	}
}

// jacobiStep applies one Jacobi sweep r ← c·M·r + e.
func jacobiStep(m *RowMatrix, c float64, e, r []float64) {
	next := make([]float64, len(r))
	m.MulVecAdd(c, r, e, next)
	copy(r, next)
}

// TestFixedPointMonotoneFromBelow: starting at a sub-solution, every sweep
// stays below the fixpoint — the property that lets FLoS truncate bound
// updates without breaking bound validity.
func TestFixedPointMonotoneFromBelow(t *testing.T) {
	m := NewRowMatrix(3)
	m.Append(1, 0, 0.5)
	m.Append(1, 2, 0.5)
	m.Append(2, 1, 1)
	c := 0.5
	e := []float64{1, 0, 0}
	exact := make([]float64, 3)
	m.FixedPoint(c, e, exact, 1e-14, 100000)
	// From zero (a sub-solution), each single sweep must not exceed exact.
	r := make([]float64, 3)
	for sweep := 0; sweep < 50; sweep++ {
		jacobiStep(m, c, e, r)
		for i := range r {
			if r[i] > exact[i]+1e-12 {
				t.Fatalf("sweep %d: r[%d]=%g exceeds fixpoint %g", sweep, i, r[i], exact[i])
			}
		}
	}
	// From above (a super-solution), iterates must never drop below.
	r = []float64{1, 1, 1}
	for sweep := 0; sweep < 50; sweep++ {
		jacobiStep(m, c, e, r)
		for i := range r {
			if r[i] < exact[i]-1e-12 {
				t.Fatalf("sweep %d: r[%d]=%g below fixpoint %g", sweep, i, r[i], exact[i])
			}
		}
	}
}

// TestFixedPointPaperExample reproduces the worked example under Theorem 3:
// path 1-2-3 with query 1, c = 0.5, exact PHP r = [1, 2/7, 1/7].
func TestFixedPointPaperExample(t *testing.T) {
	m := NewRowMatrix(3)
	// Row of node 2 (index 1): p21 = p23 = 0.5. Row of node 3: p32 = 1.
	// Query row (node 1) zeroed.
	m.Append(1, 0, 0.5)
	m.Append(1, 2, 0.5)
	m.Append(2, 1, 1)
	e := []float64{1, 0, 0}
	r := make([]float64, 3)
	m.FixedPoint(0.5, e, r, 1e-14, 100000)
	want := []float64{1, 2.0 / 7, 1.0 / 7}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-10 {
			t.Fatalf("r = %v, want %v", r, want)
		}
	}
}

// TestSweepsTruncatedHorizon: L sweeps from zero of r ← Mr + e compute the
// L-truncated hitting time exactly; unreachable-within-L nodes sit at L.
func TestSweepsTruncatedHorizon(t *testing.T) {
	// Path 0-1-2-3-4, query 0. THT: r_i = 1 + avg of neighbors, r_0 = 0.
	n := 5
	m := NewRowMatrix(n)
	m.Append(1, 0, 0.5)
	m.Append(1, 2, 0.5)
	m.Append(2, 1, 0.5)
	m.Append(2, 3, 0.5)
	m.Append(3, 2, 0.5)
	m.Append(3, 4, 0.5)
	m.Append(4, 3, 1)
	e := []float64{0, 1, 1, 1, 1}
	r := make([]float64, n)
	L := 3
	for range L {
		jacobiStep(m, 1, e, r)
	}
	if r[0] != 0 {
		t.Fatalf("query THT = %g", r[0])
	}
	// Node 4 is 4 hops away: truncated value must be exactly L.
	if r[4] != float64(L) {
		t.Fatalf("unreachable-in-L node = %g, want %d", r[4], L)
	}
	// Node 1: walks of length <= 3 reaching 0. Hand-computed:
	// r1^1=1, r2^1=1, r3^1=1, r4^1=1
	// r1^2=1+0.5*r2^1=1.5, r2^2=1+0.5(r1^1+r3^1)=2, r3^2=2, r4^2=2
	// r1^3=1+0.5*r2^2=2, ...
	if math.Abs(r[1]-2) > 1e-12 {
		t.Fatalf("r1 = %g, want 2", r[1])
	}
}

func TestDenseLUInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8
	a := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		a.Add(i, i, float64(n)) // diagonally dominant, hence invertible
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := f.Invert()
	if err != nil {
		t.Fatal(err)
	}
	// Check A * inv = I.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(i, k) * inv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("(A*inv)[%d,%d] = %g, want %g", i, j, s, want)
			}
		}
	}
}

func TestDenseLUSingular(t *testing.T) {
	a := NewDense(3) // zero matrix
	if _, err := Factor(a); err == nil {
		t.Fatal("factored a singular matrix")
	}
}

func TestDenseSolveDimensionMismatch(t *testing.T) {
	f, err := Factor(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("wrong-length b accepted")
	}
}

// TestDensePivoting: a matrix needing row swaps still factors correctly.
func TestDensePivoting(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveDense(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

// pathAdj adapts a path graph to AdjacencyProvider for RCM tests.
type pathAdj struct{ n int }

func (p pathAdj) NumNodes() int { return p.n }
func (p pathAdj) Neighbors(v int32) ([]int32, []float64) {
	var nbrs []int32
	if v > 0 {
		nbrs = append(nbrs, v-1)
	}
	if int(v) < p.n-1 {
		nbrs = append(nbrs, v+1)
	}
	ws := make([]float64, len(nbrs))
	for i := range ws {
		ws[i] = 1
	}
	return nbrs, ws
}

// shuffledAdj relabels an AdjacencyProvider through a permutation, so a
// low-bandwidth graph looks scrambled until RCM recovers the structure.
type shuffledAdj struct {
	base AdjacencyProvider
	perm []int32 // new id -> base id
	inv  []int32
}

func newShuffledAdj(base AdjacencyProvider, seed int64) *shuffledAdj {
	n := base.NumNodes()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	inv := make([]int32, n)
	for i, v := range perm {
		inv[v] = int32(i)
	}
	return &shuffledAdj{base: base, perm: perm, inv: inv}
}

func (s *shuffledAdj) NumNodes() int { return s.base.NumNodes() }
func (s *shuffledAdj) Neighbors(v int32) ([]int32, []float64) {
	nbrs, ws := s.base.Neighbors(s.perm[v])
	out := make([]int32, len(nbrs))
	for i, u := range nbrs {
		out[i] = s.inv[u]
	}
	return out, ws
}

func TestRCMReducesBandwidth(t *testing.T) {
	g := newShuffledAdj(pathAdj{n: 64}, 5)
	identity := make([]int32, 64)
	for i := range identity {
		identity[i] = int32(i)
	}
	before := Bandwidth(g, identity)
	order := RCM(g)
	after := Bandwidth(g, order)
	if after != 1 {
		t.Fatalf("RCM bandwidth on a path = %d, want 1 (was %d)", after, before)
	}
	// order must be a permutation.
	seen := make([]bool, 64)
	for _, v := range order {
		if seen[v] {
			t.Fatal("RCM repeated a node")
		}
		seen[v] = true
	}
}

// TestSparseLUMatchesDense: the sparse factorization solves the same system
// as the dense one, under RCM ordering, on a random diagonally dominant
// matrix derived from a path-plus-chords graph.
func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 30
	rows := make([][]Entry, n)
	dense := Identity(n)
	c := 0.8
	addPair := func(i, j int, v float64) {
		rows[i] = append(rows[i], Entry{Col: int32(j), Val: v})
		dense.Add(i, j, -c*v)
	}
	for i := 0; i < n; i++ {
		// Sub-stochastic row: up to 3 entries summing below 1.
		rem := 0.95
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rem * rng.Float64() * 0.5
			rem -= v
			addPair(i, j, v)
		}
	}
	// A = I - cT where T's rows are `rows`.
	arows := make([][]Entry, n)
	for i := 0; i < n; i++ {
		arows[i] = append(arows[i], Entry{Col: int32(i), Val: 1})
		for _, e := range rows[i] {
			arows[i] = append(arows[i], Entry{Col: e.Col, Val: -c * e.Val})
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	f, err := FactorSparse(arows, order, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	b[0] = 1
	got := f.Solve(b)
	want, err := SolveDense(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := InfNorm(got, want); d > 1e-9 {
		t.Fatalf("sparse vs dense solutions differ by %g", d)
	}
	if f.Fill() <= 0 {
		t.Fatal("no fill recorded")
	}
}

func TestSparseLUFillBudget(t *testing.T) {
	n := 20
	arows := make([][]Entry, n)
	for i := 0; i < n; i++ {
		arows[i] = append(arows[i], Entry{Col: int32(i), Val: 1})
		for j := 0; j < n; j++ {
			if j != i {
				arows[i] = append(arows[i], Entry{Col: int32(j), Val: -0.01})
			}
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if _, err := FactorSparse(arows, order, 10); err != ErrFillExceeded {
		t.Fatalf("err = %v, want ErrFillExceeded", err)
	}
}

// TestPropertySparseSolveResidual: for random ordering and random
// sub-stochastic systems, the sparse LU solution satisfies the system.
func TestPropertySparseSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		c := 0.9
		trows := make([][]Entry, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			if j != i {
				trows[i] = append(trows[i], Entry{Col: int32(j), Val: 0.7})
			}
		}
		arows := make([][]Entry, n)
		for i := 0; i < n; i++ {
			arows[i] = append(arows[i], Entry{Col: int32(i), Val: 1})
			for _, e := range trows[i] {
				arows[i] = append(arows[i], Entry{Col: e.Col, Val: -c * e.Val})
			}
		}
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		lu, err := FactorSparse(arows, order, 1<<20)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		b[rng.Intn(n)] = 1
		x := lu.Solve(b)
		// Residual check: A x == b.
		for i := 0; i < n; i++ {
			s := 0.0
			for _, e := range arows[i] {
				s += e.Val * x[e.Col]
			}
			if math.Abs(s-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
