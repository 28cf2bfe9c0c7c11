package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph is an 8-node unit-weight fixture: edges
// 1-2, 1-3, 2-3, 3-4, 4-5, 4-6, 4-7, 5-6, 7-8 (renumbered to 0-based).
func paperGraph(t testing.TB) *MemGraph {
	t.Helper()
	g, err := FromEdges(8,
		0, 1, 0, 2, 1, 2, 2, 3, 3, 4, 3, 5, 3, 6, 4, 5, 6, 7)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := paperGraph(t)
	if got := g.NumNodes(); got != 8 {
		t.Fatalf("NumNodes = %d, want 8", got)
	}
	if got := g.NumEdges(); got != 9 {
		t.Fatalf("NumEdges = %d, want 9", got)
	}
	nbrs, ws := g.Neighbors(3)
	if len(nbrs) != 4 {
		t.Fatalf("node 3 neighbors = %v, want 4 of them", nbrs)
	}
	wantN := []NodeID{2, 4, 5, 6}
	if !reflect.DeepEqual(nbrs, wantN) {
		t.Errorf("node 3 neighbors = %v, want %v", nbrs, wantN)
	}
	for _, w := range ws {
		if w != 1 {
			t.Errorf("unit graph has weight %g", w)
		}
	}
	if d := g.Degree(3); d != 4 {
		t.Errorf("Degree(3) = %g, want 4", d)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]NodeID{{0, 1}, {1, 0}, {0, 1}, {1, 2}} {
		if err := b.AddEdge(e[0], e[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after merging", g.NumEdges())
	}
	_, ws := g.Neighbors(0)
	if len(ws) != 1 || ws[0] != 6 {
		t.Fatalf("merged weight = %v, want [6]", ws)
	}
	if d := g.Degree(1); d != 8 {
		t.Fatalf("Degree(1) = %g, want 8", d)
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := b.AddEdge(0, 4, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 2, 1); err == nil {
		t.Error("negative id accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := b.AddEdge(0, 1, -0.5); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestGrowingBuilder(t *testing.T) {
	b := NewGrowingBuilder()
	if err := b.AddUnitEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestTopDegrees(t *testing.T) {
	// Star: center 0 with 5 leaves, plus an extra edge between leaves 1-2.
	g := MustFromEdges(6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2)
	top := g.TopDegrees(3)
	if len(top) != 3 {
		t.Fatalf("TopDegrees(3) returned %d entries", len(top))
	}
	if top[0].Node != 0 || top[0].Degree != 5 {
		t.Errorf("top[0] = %+v, want node 0 degree 5", top[0])
	}
	if top[1].Degree != 2 || top[2].Degree != 2 {
		t.Errorf("next entries = %+v, want degree-2 nodes", top[1:])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Degree > top[i-1].Degree {
			t.Errorf("TopDegrees not sorted at %d", i)
		}
	}
}

// TestTopDegreeIndexMatchesFullSort: the bounded selection returns exactly
// the prefix a sort of every node by (degree desc, node asc) gives, on
// degrees drawn from eight values so that ties cross the cut, and on sizes
// either side of the index length.
func TestTopDegreeIndexMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, topDegreeCache - 1, topDegreeCache, topDegreeCache + 1, 20000} {
		degrees := make([]float64, n)
		for v := range degrees {
			degrees[v] = float64(rng.Intn(8)) / 2
		}
		want := make([]DegreeEntry, n)
		for v, d := range degrees {
			want[v] = DegreeEntry{Node: NodeID(v), Degree: d}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Degree != want[j].Degree {
				return want[i].Degree > want[j].Degree
			}
			return want[i].Node < want[j].Node
		})
		want = want[:min(n, topDegreeCache)]
		if got := TopDegreeIndex(degrees); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: bounded selection differs from the full sort (%d vs %d entries)", n, len(got), len(want))
		}
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	g := paperGraph(t)
	g2, err := FromCSR(g.Offsets(), g.Targets(), g.Weights())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(NodeID(v)) != g2.Degree(NodeID(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestEdgeListParsesWeightsAndComments(t *testing.T) {
	in := "# comment\n% other comment\n0 1 2.5\n\n1 2\n2 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (self loop dropped)", g.NumEdges())
	}
	_, ws := g.Neighbors(0)
	if ws[0] != 2.5 {
		t.Fatalf("weight = %g, want 2.5", ws[0])
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 x\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// TestEdgeListRefusesSparseIDs: a short edge list whose largest node ID
// names far more nodes than its edges can use is refused before the graph
// is allocated, and the limit (64 IDs per edge past the first 2^20) is
// exact.
func TestEdgeListRefusesSparseIDs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEdgeList(strings.NewReader("20000000 0\n"))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "20000000") {
		t.Fatalf("err = %v, want a refusal naming node ID 20000000", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("refusing an 11-byte edge list allocated %d bytes", alloc)
	}
	limit := 64 + 1<<20 // node count accepted for one edge
	g, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("%d 0\n", limit-1)))
	if err != nil || g.NumNodes() != limit {
		t.Fatalf("largest ID %d: err %v, want a graph of %d nodes", limit-1, err, limit)
	}
	if _, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("%d 0\n", limit))); err == nil {
		t.Fatalf("largest ID %d accepted for one edge", limit)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := randomGraph(t, 200, 600, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

// TestBinaryRoundTripAcrossChunks round-trips arrays longer than one I/O
// chunk byte for byte, and refuses the file cut short anywhere.
func TestBinaryRoundTripAcrossChunks(t *testing.T) {
	g := randomGraph(t, 20000, 60000, 8)
	if len(g.targets) <= 2*binChunk {
		t.Fatalf("only %d half edges: the arrays fit in two chunks", len(g.targets))
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	g2, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteBinary(&again, g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("rewritten file differs")
	}
	for _, cut := range []int{24, 24 + 8*binChunk/2, len(data) - 8*binChunk, len(data) - 1} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("file cut to %d of %d bytes accepted", cut, len(data))
		}
	}
}

// TestBinaryRejectsBadWeights doctors the weight of edge (0,2) in a
// serialized 5-node graph: a weight that is not a positive finite number,
// or a degree that overflows, must not load.
func TestBinaryRejectsBadWeights(t *testing.T) {
	g := MustFromEdges(5, 0, 1, 0, 2, 1, 2, 2, 3, 3, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Row 0 is [1, 2]: its second entry is the half edge (0,2).
	weightsAt := 24 + 8*(g.NumNodes()+1) + 4*len(g.targets)
	entry := int(g.offsets[0]) + 1
	if g.targets[entry] != 2 {
		t.Fatalf("entry %d targets %d, want 2", entry, g.targets[entry])
	}
	for _, w := range []float64{math.NaN(), -3, 0, math.Inf(1), math.Inf(-1)} {
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(data[weightsAt+8*entry:], math.Float64bits(w))
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("weight %g on edge (0,2) loaded", w)
		}
	}
	data := bytes.Clone(buf.Bytes())
	for i := 0; i < 2; i++ { // both of node 0's entries: 2·1e308 overflows
		binary.LittleEndian.PutUint64(data[weightsAt+8*i:], math.Float64bits(1e308))
	}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("degree overflowing to +Inf loaded")
	}
}

// TestFromCSRKeepsLoopsAndParallelEntries: FromCSR refuses bad weights but
// keeps a self loop and parallel entries as given.
func TestFromCSRKeepsLoopsAndParallelEntries(t *testing.T) {
	offsets := []int64{0, 3, 5}
	targets := []NodeID{0, 1, 1, 0, 0}
	weights := []float64{0.5, 1, 2, 1, 2}
	g, err := FromCSR(offsets, targets, weights)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(0); d != 3.5 {
		t.Errorf("Degree(0) = %g, want 3.5", d)
	}
	if nbrs, _ := g.Neighbors(0); !reflect.DeepEqual(nbrs, []NodeID{0, 1, 1}) {
		t.Errorf("Neighbors(0) = %v", nbrs)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStats(t *testing.T) {
	g := paperGraph(t)
	s := ComputeStats(g)
	if s.Nodes != 8 || s.Edges != 9 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 || s.LargestComp != 8 {
		t.Errorf("components = %d largest = %d, want 1/8", s.Components, s.LargestComp)
	}
	if s.MaxDegree != 4 || s.MinDegree != 1 {
		t.Errorf("degree range = [%g,%g], want [1,4]", s.MinDegree, s.MaxDegree)
	}
	if s.Density != 2.25 {
		t.Errorf("density = %g, want 2.25", s.Density)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestStatsDisconnected(t *testing.T) {
	g := MustFromEdges(5, 0, 1, 2, 3) // node 4 isolated
	s := ComputeStats(g)
	if s.Components != 3 {
		t.Errorf("components = %d, want 3", s.Components)
	}
	if s.Isolated != 1 {
		t.Errorf("isolated = %d, want 1", s.Isolated)
	}
	if s.LargestComp != 2 {
		t.Errorf("largest = %d, want 2", s.LargestComp)
	}
}

func TestBFSDistances(t *testing.T) {
	g := paperGraph(t)
	dist := BFSDistances(g, 0, -1)
	want := []int32{0, 1, 1, 2, 3, 3, 3, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
	capped := BFSDistances(g, 0, 2)
	for v, d := range capped {
		if want[v] <= 2 && d != want[v] {
			t.Errorf("capped dist[%d] = %d, want %d", v, d, want[v])
		}
		if want[v] > 2 && d != -1 {
			t.Errorf("capped dist[%d] = %d, want -1", v, d)
		}
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g := paperGraph(t)
	hood := KHopNeighborhood(g, 0, 2)
	want := map[NodeID]bool{0: true, 1: true, 2: true, 3: true}
	if len(hood) != len(want) {
		t.Fatalf("2-hop hood = %v", hood)
	}
	for _, v := range hood {
		if !want[v] {
			t.Errorf("unexpected node %d in 2-hop hood", v)
		}
	}
}

func TestSubgraph(t *testing.T) {
	g := paperGraph(t)
	sg, back, err := Subgraph(g, []NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumNodes() != 4 {
		t.Fatalf("subgraph nodes = %d", sg.NumNodes())
	}
	// Induced edges among {0,1,2,3}: 0-1, 0-2, 1-2, 2-3.
	if sg.NumEdges() != 4 {
		t.Fatalf("subgraph edges = %d, want 4", sg.NumEdges())
	}
	if !reflect.DeepEqual(back, []NodeID{0, 1, 2, 3}) {
		t.Fatalf("back map = %v", back)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargestComponentNodes(t *testing.T) {
	g := MustFromEdges(7, 0, 1, 1, 2, 3, 4) // comps {0,1,2}, {3,4}, {5}, {6}
	lc := LargestComponentNodes(g)
	sort.Slice(lc, func(i, j int) bool { return lc[i] < lc[j] })
	if !reflect.DeepEqual(lc, []NodeID{0, 1, 2}) {
		t.Fatalf("largest component = %v", lc)
	}
}

// randomGraph builds a connected-ish random graph for property tests: a ring
// ensuring connectivity plus extra random chords with random weights.
func randomGraph(t testing.TB, n, extra int, seed int64) *MemGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		if err := b.AddEdge(NodeID(v), NodeID((v+1)%n), 1+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertSameGraph(t *testing.T, a, b *MemGraph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		an, aw := a.Neighbors(NodeID(v))
		bn, bw := b.Neighbors(NodeID(v))
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("node %d neighbors differ: %v vs %v", v, an, bn)
		}
		for i := range aw {
			if diff := aw[i] - bw[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("node %d weight %d differs: %g vs %g", v, i, aw[i], bw[i])
			}
		}
	}
}

// TestPropertyDegreeIsNeighborSum: for arbitrary built graphs the cached
// degree equals the sum of incident weights.
func TestPropertyDegreeIsNeighborSum(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 50, 100, seed)
		for v := 0; v < g.NumNodes(); v++ {
			_, ws := g.Neighbors(NodeID(v))
			var sum float64
			for _, w := range ws {
				sum += w
			}
			d := g.Degree(NodeID(v))
			if diff := d - sum; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBinaryRoundTrip: serialization is lossless for arbitrary
// random graphs.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 30, 60, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if g.NumNodes() != g2.NumNodes() || g.NumEdges() != g2.NumEdges() {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(NodeID(v)) != g2.Degree(NodeID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySymmetry: Validate passes (symmetry holds) for arbitrary
// builder outputs.
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 40, 80, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
