package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceBuild is the comparison-sort Build that the counting-pass Build
// replaced, kept as the oracle the differential tests check it against. It
// reads the edge arrays without modifying them.
func referenceBuild(n int, us, vs []NodeID, ws []float64) (*MemGraph, error) {
	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	m := len(us)
	type fullEdge struct {
		u, v NodeID
		w    float64
	}
	edges := make([]fullEdge, 0, m)
	for i := 0; i < m; i++ {
		u, v := us[i], vs[i]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, fullEdge{u, v, ws[i]})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	merged := edges[:0]
	for _, e := range edges {
		if k := len(merged); k > 0 && merged[k-1].u == e.u && merged[k-1].v == e.v {
			merged[k-1].w += e.w
			if math.IsInf(merged[k-1].w, 1) {
				return nil, fmt.Errorf("graph: summed weight of edge (%d,%d) overflows", e.u, e.v)
			}
		} else {
			merged = append(merged, e)
		}
	}

	type halfEdge struct {
		src, dst NodeID
		w        float64
	}
	halves := make([]halfEdge, 0, 2*len(merged))
	for _, e := range merged {
		halves = append(halves,
			halfEdge{e.u, e.v, e.w},
			halfEdge{e.v, e.u, e.w})
	}
	sort.Slice(halves, func(i, j int) bool {
		if halves[i].src != halves[j].src {
			return halves[i].src < halves[j].src
		}
		return halves[i].dst < halves[j].dst
	})

	g := &MemGraph{
		offsets: make([]int64, n+1),
		targets: make([]NodeID, len(halves)),
		weights: make([]float64, len(halves)),
		degrees: make([]float64, n),
		nEdges:  int64(len(halves)) / 2,
	}
	for i, h := range halves {
		g.offsets[h.src+1]++
		g.targets[i] = h.dst
		g.weights[i] = h.w
		g.degrees[h.src] += h.w
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] += g.offsets[v]
		if math.IsInf(g.degrees[v], 1) {
			return nil, fmt.Errorf("graph: weighted degree of node %d overflows", v)
		}
	}
	g.buildTopDegrees()
	return g, nil
}

// buildBoth runs referenceBuild on a copy of b's edges, then b.Build.
func buildBoth(b *Builder) (got, want *MemGraph, gotErr, wantErr error) {
	want, wantErr = referenceBuild(b.n, slices.Clone(b.us), slices.Clone(b.vs), slices.Clone(b.ws))
	got, gotErr = b.Build()
	return got, want, gotErr, wantErr
}

// sameBits reports the first difference between two builds: the same error
// text, or CSR arrays, degrees and degree index equal bit for bit.
func sameBits(got, want *MemGraph, gotErr, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
		}
		return nil
	}
	if got.nEdges != want.nEdges {
		return fmt.Errorf("nEdges %d, reference %d", got.nEdges, want.nEdges)
	}
	if !slices.Equal(got.offsets, want.offsets) {
		return fmt.Errorf("offsets %v, reference %v", head(got.offsets), head(want.offsets))
	}
	if !slices.Equal(got.targets, want.targets) {
		return fmt.Errorf("targets %v, reference %v", head(got.targets), head(want.targets))
	}
	if i := firstBitDiff(got.weights, want.weights); i >= 0 {
		return fmt.Errorf("weights differ at entry %d", i)
	}
	if i := firstBitDiff(got.degrees, want.degrees); i >= 0 {
		return fmt.Errorf("degree of node %d is %x, reference %x", i,
			math.Float64bits(got.degrees[i]), math.Float64bits(want.degrees[i]))
	}
	if !slices.Equal(got.top, want.top) {
		return errors.New("degree index differs")
	}
	return nil
}

func head[T any](s []T) []T { return s[:min(len(s), 16)] }

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// spreadWeight draws a weight log-uniformly from [1e-9, 1e6], wide enough
// that summing the same numbers in another order changes the last bits.
func spreadWeight(rng *rand.Rand) float64 { return math.Pow(10, -9+15*rng.Float64()) }

// addMultigraph adds m random edges over n nodes to b; a quarter of them
// repeat an earlier edge, half of those in the other orientation.
func addMultigraph(t *testing.T, b *Builder, rng *rand.Rand, n, m int) {
	t.Helper()
	type pair struct{ u, v NodeID }
	var seen []pair
	for len(seen) < m {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if len(seen) > 0 && rng.Intn(4) == 0 {
			p := seen[rng.Intn(len(seen))]
			u, v = p.u, p.v
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
		}
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, spreadWeight(rng)); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, pair{u, v})
	}
}

func TestBuildMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *Builder
	}{
		{"multigraph", func(t *testing.T) *Builder {
			b := NewBuilder(500)
			addMultigraph(t, b, rand.New(rand.NewSource(1)), 500, 20000)
			return b
		}},
		{"dense multigraph", func(t *testing.T) *Builder {
			b := NewBuilder(12)
			addMultigraph(t, b, rand.New(rand.NewSource(2)), 12, 3000)
			return b
		}},
		{"isolated nodes", func(t *testing.T) *Builder {
			b := NewBuilder(1000)
			addMultigraph(t, b, rand.New(rand.NewSource(3)), 40, 400)
			return b
		}},
		{"no edges", func(t *testing.T) *Builder { return NewBuilder(5) }},
		{"growing", func(t *testing.T) *Builder {
			b := NewGrowingBuilder()
			addMultigraph(t, b, rand.New(rand.NewSource(4)), 3000, 10000)
			return b
		}},
		{"single edge", func(t *testing.T) *Builder {
			b := NewBuilder(2)
			if err := b.AddEdge(1, 0, 0.25); err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"hub", func(t *testing.T) *Builder {
			// A hub joined to all 80,000 other nodes in random order, 30,000
			// of those edges added again in the other orientation, on top of
			// a random fringe.
			const n = 80001
			rng := rand.New(rand.NewSource(5))
			b := NewBuilder(n)
			hub := NodeID(n / 2)
			for _, v := range rng.Perm(n) {
				if NodeID(v) == hub {
					continue
				}
				if err := b.AddEdge(hub, NodeID(v), spreadWeight(rng)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 30000; i++ {
				v := NodeID(rng.Intn(n))
				if v == hub {
					continue
				}
				if err := b.AddEdge(v, hub, spreadWeight(rng)); err != nil {
					t.Fatal(err)
				}
			}
			addMultigraph(t, b, rng, n, 30000)
			return b
		}},
		{"summed weight overflows", func(t *testing.T) *Builder {
			b := NewBuilder(4)
			for _, e := range [][2]NodeID{{2, 3}, {0, 1}, {3, 2}, {1, 0}} {
				if err := b.AddEdge(e[0], e[1], 1e308); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}},
		{"degree overflows", func(t *testing.T) *Builder {
			b := NewBuilder(4)
			for v := NodeID(1); v < 4; v++ {
				if err := b.AddEdge(0, v, 1e308); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want, gotErr, wantErr := buildBoth(c.build(t))
			if err := sameBits(got, want, gotErr, wantErr); err != nil {
				t.Fatal(err)
			}
			if gotErr == nil {
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestBuildTwiceFails(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build succeeded on consumed edge arrays")
	}
}

// FuzzBuild decodes its input into a node count and (u, v, w) triples and
// checks Build against referenceBuild. Each 4-byte record is u, v, and a
// weight (1 + b2/256)·2^(8·int8(b3)), which reaches both subnormals and
// sums that overflow.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 0, 1, 0, 128, 0, 2, 3, 7, 1})
	f.Add([]byte{3, 0, 1, 255, 127, 1, 0, 255, 127, 0, 2, 0, 127})
	f.Add([]byte{64, 9, 3, 17, 0x81, 3, 9, 200, 0x90, 9, 3, 1, 2, 40, 41, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		n := 1 + int(in[0]%64)
		b := NewBuilder(n)
		for rec := in[1:]; len(rec) >= 4; rec = rec[4:] {
			u, v := NodeID(int(rec[0])%n), NodeID(int(rec[1])%n)
			w := math.Ldexp(1+float64(rec[2])/256, 8*int(int8(rec[3])))
			_ = b.AddEdge(u, v, w) // self loops are refused here, as in use
		}
		got, want, gotErr, wantErr := buildBoth(b)
		if err := sameBits(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("%v\ninput: %x", err, in)
		}
	})
}

// BenchmarkBuild builds a graph of 1M edges over 100k nodes, the shape of
// the benchmark's disk store, from edges added in random order and in
// sorted (u, v) order. The edge arrays are copied into a fresh Builder
// outside the timer, since Build consumes them.
func BenchmarkBuild(b *testing.B) {
	const n, m = 100_000, 1_000_000
	type edges struct {
		us, vs []NodeID
		ws     []float64
	}
	rng := rand.New(rand.NewSource(1))
	random := edges{make([]NodeID, m), make([]NodeID, m), make([]float64, m)}
	for i := range random.us {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n-1))
		if v >= u {
			v++
		}
		random.us[i], random.vs[i], random.ws[i] = u, v, 1
	}
	key := func(i int) uint64 {
		u, v := random.us[i], random.vs[i]
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return key(idx[a]) < key(idx[c]) })
	sorted := edges{make([]NodeID, m), make([]NodeID, m), make([]float64, m)}
	for j, i := range idx {
		sorted.us[j], sorted.vs[j], sorted.ws[j] = random.us[i], random.vs[i], random.ws[i]
	}
	for _, c := range []struct {
		name string
		e    edges
	}{{"random", random}, {"sorted", sorted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bd := &Builder{n: n, fixed: true, us: slices.Clone(c.e.us), vs: slices.Clone(c.e.vs), ws: slices.Clone(c.e.ws)}
				b.StartTimer()
				if _, err := bd.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
