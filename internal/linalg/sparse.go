// Package linalg provides the small linear-algebra kernel the baselines and
// the tests are built on: a growable sparse row matrix with the Jacobi-style
// fixed-point solver of the paper's Algorithm 7 (the DNE baseline's local
// solve), dense LU (the reference the engine and measure tests compare
// against), and an RCM-ordered sparse LU used by the K-dash baseline's
// precompute step.
package linalg

import "math"

// Entry is one non-zero of a sparse row: value Val in column Col.
type Entry struct {
	Col int32
	Val float64
}

// RowMatrix is a growable sparse matrix stored as one slice of entries per
// row: the |S|×|S| local transition matrix of a search that grows as it
// expands (paper Algorithms 4 and 5). Appending rows and entries is O(1),
// exactly the two mutations local expansion performs.
type RowMatrix struct {
	Rows [][]Entry
}

// NewRowMatrix returns a matrix with n empty rows.
func NewRowMatrix(n int) *RowMatrix {
	return &RowMatrix{Rows: make([][]Entry, n)}
}

// AddRow appends an empty row and returns its index.
func (m *RowMatrix) AddRow() int32 {
	m.Rows = append(m.Rows, nil)
	return int32(len(m.Rows) - 1)
}

// Append adds entry (row, col, val) without checking for duplicates: a
// duplicate coordinate adds to the first, which is what MulVecAdd computes.
func (m *RowMatrix) Append(row, col int32, val float64) {
	m.Rows[row] = append(m.Rows[row], Entry{Col: col, Val: val})
}

// MulVecAdd computes out = c*M*x + e for the leading len(out) rows.
// Columns beyond len(x) are an error in debug builds; here they panic via
// bounds check, which tests exercise deliberately.
func (m *RowMatrix) MulVecAdd(c float64, x, e, out []float64) {
	for i := range out {
		var s float64
		for _, en := range m.Rows[i] {
			s += en.Val * x[en.Col]
		}
		out[i] = c*s + e[i]
	}
}

// FixedPoint solves r = c·M·r + e by Jacobi iteration — the paper's
// Algorithm 7 ("IterativeMethod"). r holds the initial guess on entry and
// the solution on exit. Iteration stops when the max-norm step falls below
// tau or after maxIter sweeps; the sweep count is returned.
//
// For c·||M||∞ < 1 the map is a contraction, so the fixpoint is unique and
// the iteration converges from any start. Two properties FLoS relies on
// (Section 5 of DESIGN.md) follow from the map's monotonicity when M ≥ 0:
// starting from a sub-solution every iterate stays ≤ the fixpoint, and from
// a super-solution every iterate stays ≥ it — so truncating at tau never
// invalidates a bound.
func (m *RowMatrix) FixedPoint(c float64, e, r []float64, tau float64, maxIter int) int {
	n := len(r)
	next := make([]float64, n)
	for iter := 1; iter <= maxIter; iter++ {
		m.MulVecAdd(c, r, e, next)
		var delta float64
		for i := range next {
			d := math.Abs(next[i] - r[i])
			if d > delta {
				delta = d
			}
		}
		copy(r, next)
		if delta < tau {
			return iter
		}
	}
	return maxIter
}

// InfNorm returns max_i |a_i - b_i|.
func InfNorm(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}
