package graph

import (
	"errors"
	"fmt"
	"math"
)

// Builder accumulates undirected edges and produces an immutable MemGraph.
// Duplicate edges are merged by summing their weights; self loops are
// rejected at Add time. Builders are not safe for concurrent use.
//
// Build runs in O(n + m) time and memory for n nodes and m added edges: it
// orders the edges with two counting passes and fills the CSR arrays
// without a comparison sort. It guarantees two summation orders, which make
// its output a pure function of the edge sequence:
//   - the weights of duplicate copies of an undirected edge, in either
//     orientation, are summed in the order the copies were added;
//   - a node's weighted degree is the sum of its row's weights in ascending
//     target order (livegraph recomputes a touched degree the same way).
type Builder struct {
	n     int
	us    []NodeID
	vs    []NodeID
	ws    []float64
	fixed bool // n was given up front; Add may not grow it
	built bool // Build has consumed the edge arrays
}

// NewBuilder returns a Builder for a graph with exactly n nodes
// (identifiers 0..n-1). Adding an edge outside that range is an error.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, fixed: true}
}

// NewGrowingBuilder returns a Builder whose node count is the largest
// identifier seen plus one. Convenient for loading edge lists whose node
// count is not known in advance.
func NewGrowingBuilder() *Builder { return &Builder{} }

// AddEdge records the undirected edge {u, v} with the given positive weight.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative node id in edge (%d,%d)", u, v)
	}
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("graph: weight %g on edge (%d,%d) is not a positive finite number", w, u, v)
	}
	if b.fixed {
		if int(u) >= b.n || int(v) >= b.n {
			return fmt.Errorf("graph: edge (%d,%d) outside fixed node range [0,%d)", u, v, b.n)
		}
	} else {
		if int(u) >= b.n {
			b.n = int(u) + 1
		}
		if int(v) >= b.n {
			b.n = int(v) + 1
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	return nil
}

// AddUnitEdge records the undirected edge {u, v} with weight 1.
func (b *Builder) AddUnitEdge(u, v NodeID) error { return b.AddEdge(u, v, 1) }

// Build produces the immutable CSR graph. Duplicate edges are merged by
// summing weights. Build may be called once: it reorders the builder's edge
// arrays in place, and a second call returns an error.
func (b *Builder) Build() (*MemGraph, error) {
	if b.built {
		return nil, errors.New("graph: Builder.Build called twice")
	}
	b.built = true
	if b.n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	n, us, vs, ws := b.n, b.us, b.vs, b.ws
	b.us, b.vs, b.ws = nil, nil, nil
	m := len(us)

	// Merge duplicate undirected edges in canonical (min, max) orientation
	// FIRST, then emit both half edges from the single merged weight.
	// Merging per direction instead would sum the duplicates in two
	// different orders and could leave the two halves differing in the last
	// ulp — an asymmetry that propagates into transition probabilities.
	for i := range us {
		if us[i] > vs[i] {
			us[i], vs[i] = vs[i], us[i]
		}
	}

	// Two stable counting passes, by v and then by u, leave the edges in
	// (u, v) order with the copies of an edge in insertion order. Adjacent
	// copies are then merged in place. The count array becomes the offsets.
	offsets := make([]int64, n+1)
	tu, tv, tw := make([]NodeID, m), make([]NodeID, m), make([]float64, m)
	scatterBy(vs, offsets, us, vs, ws, tu, tv, tw)
	clear(offsets)
	scatterBy(tu, offsets, tu, tv, tw, us, vs, ws)
	k := 0
	for i := range us {
		if k > 0 && us[k-1] == us[i] && vs[k-1] == vs[i] {
			ws[k-1] += ws[i]
			if math.IsInf(ws[k-1], 1) {
				return nil, fmt.Errorf("graph: summed weight of edge (%d,%d) overflows", us[i], vs[i])
			}
			continue
		}
		us[k], vs[k], ws[k] = us[i], vs[i], ws[i]
		k++
	}
	us, vs, ws = us[:k], vs[:k], ws[:k]

	// offsets[x] becomes the start of row x and serves as its fill cursor.
	// Row x receives its smaller neighbours from the edges (u, x), u < x,
	// which come first and in ascending u, then its larger ones from the
	// edges (x, v) in ascending v, so every row comes out sorted.
	// Afterwards offsets[x] is the end of row x, and one shift turns the
	// ends into starts.
	clear(offsets)
	for i, u := range us {
		offsets[u]++
		offsets[vs[i]]++
	}
	var sum int64
	for x := 0; x < n; x++ {
		c := offsets[x]
		offsets[x] = sum
		sum += c
	}
	offsets[n] = sum
	targets := make([]NodeID, sum)
	weights := make([]float64, sum)
	for i, u := range us {
		v, w := vs[i], ws[i]
		targets[offsets[u]], weights[offsets[u]] = v, w
		offsets[u]++
		targets[offsets[v]], weights[offsets[v]] = u, w
		offsets[v]++
	}
	copy(offsets[1:n], offsets[:n-1])
	offsets[0] = 0

	degrees := make([]float64, n)
	for x := 0; x < n; x++ {
		if offsets[x] == offsets[x+1] {
			continue // isolated: a sparse ID range leaves most pages of degrees untouched
		}
		var d float64
		for _, w := range weights[offsets[x]:offsets[x+1]] {
			d += w
		}
		if math.IsInf(d, 1) {
			return nil, fmt.Errorf("graph: weighted degree of node %d overflows", x)
		}
		degrees[x] = d
	}
	g := &MemGraph{
		offsets: offsets,
		targets: targets,
		weights: weights,
		degrees: degrees,
		nEdges:  int64(len(us)),
	}
	g.buildTopDegrees()
	return g, nil
}

// scatterBy moves edge i of (us, vs, ws) to (du, dv, dw) in the bucket of
// key[i], keeping input order within a bucket: one stable counting-sort
// pass. count has one entry more than there are nodes and must be zero.
func scatterBy(key []NodeID, count []int64, us, vs []NodeID, ws []float64, du, dv []NodeID, dw []float64) {
	for _, x := range key {
		count[x+1]++
	}
	for x := 1; x < len(count); x++ {
		count[x] += count[x-1]
	}
	for i, x := range key {
		j := count[x]
		count[x]++
		du[j], dv[j], dw[j] = us[i], vs[i], ws[i]
	}
}

// FromCSR wraps pre-built CSR arrays in a MemGraph. The arrays are adopted,
// not copied; the caller must not modify them afterwards. The adjacency must
// already contain both half edges of every undirected edge. Every weight
// must be a positive finite number, as the Builder requires, and no
// weighted degree may overflow; self loops and parallel entries are kept
// as given.
func FromCSR(offsets []int64, targets []NodeID, weights []float64) (*MemGraph, error) {
	if len(offsets) < 2 {
		return nil, errors.New("graph: FromCSR needs at least one node")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, errors.New("graph: FromCSR offsets must start at 0")
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: FromCSR offsets not monotone at node %d", v)
		}
	}
	if int64(len(targets)) != offsets[n] || len(weights) != len(targets) {
		return nil, errors.New("graph: FromCSR array lengths disagree with offsets")
	}
	for i, t := range targets {
		if t < 0 || int(t) >= n {
			return nil, fmt.Errorf("graph: FromCSR target %d out of range at entry %d", t, i)
		}
		if w := weights[i]; !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("graph: FromCSR weight %g at entry %d is not a positive finite number", w, i)
		}
	}
	degrees := make([]float64, n)
	for v := 0; v < n; v++ {
		var d float64
		for _, w := range weights[offsets[v]:offsets[v+1]] {
			d += w
		}
		if math.IsInf(d, 1) {
			return nil, fmt.Errorf("graph: FromCSR weighted degree of node %d overflows", v)
		}
		degrees[v] = d
	}
	g := &MemGraph{
		offsets: offsets,
		targets: targets,
		weights: weights,
		degrees: degrees,
		nEdges:  offsets[n] / 2,
	}
	g.buildTopDegrees()
	return g, nil
}

// FromEdges builds a unit-weight graph with n nodes from a flat list of
// node pairs: pairs[2i], pairs[2i+1] is the i-th edge. It exists for
// concise test fixtures.
func FromEdges(n int, pairs ...NodeID) (*MemGraph, error) {
	if len(pairs)%2 != 0 {
		return nil, errors.New("graph: FromEdges needs an even number of endpoints")
	}
	b := NewBuilder(n)
	for i := 0; i < len(pairs); i += 2 {
		if err := b.AddUnitEdge(pairs[i], pairs[i+1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error; for test fixtures.
func MustFromEdges(n int, pairs ...NodeID) *MemGraph {
	g, err := FromEdges(n, pairs...)
	if err != nil {
		panic(err)
	}
	return g
}
