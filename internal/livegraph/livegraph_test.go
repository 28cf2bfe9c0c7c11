package livegraph

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"flos/internal/graph"
)

func baseGraph(t *testing.T) *graph.MemGraph {
	t.Helper()
	return graph.MustFromEdges(8,
		0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 0, 4)
}

func row(g graph.Graph, v graph.NodeID) ([]graph.NodeID, []float64) {
	n, w := g.Neighbors(v)
	return n, w
}

func TestBaseSnapshotAliasesMemGraph(t *testing.T) {
	base := baseGraph(t)
	lg := New(base)
	s := lg.Acquire()
	defer s.Release()

	if s.Epoch() != 1 {
		t.Fatalf("base epoch = %d, want 1", s.Epoch())
	}
	if s.NumNodes() != base.NumNodes() || s.NumEdges() != base.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", s.NumNodes(), s.NumEdges(), base.NumNodes(), base.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < base.NumNodes(); v++ {
		bn, bw := base.Neighbors(v)
		sn, sw := s.Neighbors(v)
		if len(bn) > 0 && (&bn[0] != &sn[0] || &bw[0] != &sw[0]) {
			t.Fatalf("node %d: base snapshot row is a copy, want alias", v)
		}
		if s.Degree(v) != base.Degree(v) {
			t.Fatalf("node %d: degree %g != %g", v, s.Degree(v), base.Degree(v))
		}
	}
}

func TestApplyCoWOnlyTouchedRows(t *testing.T) {
	lg := New(baseGraph(t))
	s1 := lg.Acquire()
	defer s1.Release()

	s2, touched, err := lg.Apply([]EdgeOp{{Op: OpAdd, U: 1, V: 5, W: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s2.Epoch())
	}
	if len(touched) != 2 || touched[0] != 1 || touched[1] != 5 {
		t.Fatalf("touched = %v, want [1 5]", touched)
	}
	// Untouched rows alias the parent snapshot.
	for _, v := range []graph.NodeID{0, 2, 3, 4, 6, 7} {
		n1, w1 := row(s1, v)
		n2, w2 := row(s2, v)
		if &n1[0] != &n2[0] || &w1[0] != &w2[0] {
			t.Fatalf("node %d: untouched row was copied", v)
		}
	}
	// Touched rows are fresh, sorted, and include the new edge.
	n2, w2 := row(s2, 1)
	n1, _ := row(s1, 1)
	if len(n2) != len(n1)+1 {
		t.Fatalf("node 1 row length %d, want %d", len(n2), len(n1)+1)
	}
	for i := 1; i < len(n2); i++ {
		if n2[i-1] >= n2[i] {
			t.Fatalf("node 1 row not sorted: %v", n2)
		}
	}
	found := false
	for i, u := range n2 {
		if u == 5 {
			found = true
			if w2[i] != 2.5 {
				t.Fatalf("edge (1,5) weight %g, want 2.5", w2[i])
			}
		}
	}
	if !found {
		t.Fatalf("edge (1,5) missing from %v", n2)
	}
	// Parent snapshot is untouched by the mutation.
	for i := 1; i < len(n1); i++ {
		if n1[i] == 5 {
			t.Fatal("parent snapshot gained the new edge")
		}
	}
	if s2.NumEdges() != s1.NumEdges()+1 {
		t.Fatalf("edge count %d, want %d", s2.NumEdges(), s1.NumEdges()+1)
	}
	if got, want := s2.Degree(1), s1.Degree(1)+2.5; got != want {
		t.Fatalf("degree(1) = %g, want %g", got, want)
	}

	t.Run("chunked", func(t *testing.T) {
		base, ops, _ := chunkedFixture(t)
		lg := New(base)
		s1 := lg.Acquire()
		defer s1.Release()
		// A deep copy of every row of the pinned parent, to compare after.
		type frozen struct {
			nbrs []graph.NodeID
			wts  []float64
			deg  float64
		}
		want := make([]frozen, s1.NumNodes())
		for v := range want {
			n, w := s1.Neighbors(graph.NodeID(v))
			want[v] = frozen{slices.Clone(n), slices.Clone(w), s1.Degree(graph.NodeID(v))}
		}

		s2, touched, err := lg.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		last := graph.NodeID(s1.NumNodes() - 1)
		if !slices.Equal(touched, []graph.NodeID{1023, 1024, last}) {
			t.Fatalf("touched = %v, want [1023 1024 %d]", touched, last)
		}
		if &s1.chunks[0] == &s2.chunks[0] {
			t.Fatal("the directory is shared with the parent, want a copy")
		}
		for c := range s2.chunks {
			copied := c != 2 // rows 1023, 1024 and n-1 live in chunks 0, 1 and 3
			if (s1.chunks[c] != s2.chunks[c]) != copied {
				t.Fatalf("chunk %d: copied=%v, want %v", c, s1.chunks[c] != s2.chunks[c], copied)
			}
		}
		for v := graph.NodeID(0); int(v) < s2.NumNodes(); v++ {
			n1, w1 := row(s1, v)
			n2, w2 := row(s2, v)
			isTouched := slices.Contains(touched, v)
			if aliased := &n1[0] == &n2[0] && &w1[0] == &w2[0]; aliased == isTouched {
				t.Fatalf("node %d: row aliases the parent = %v, touched = %v", v, aliased, isTouched)
			}
			if !isTouched && s1.Degree(v) != s2.Degree(v) {
				t.Fatalf("node %d: untouched degree moved %g -> %g", v, s1.Degree(v), s2.Degree(v))
			}
		}
		for v, f := range want {
			n, w := s1.Neighbors(graph.NodeID(v))
			if !slices.Equal(n, f.nbrs) || !slices.Equal(w, f.wts) || s1.Degree(graph.NodeID(v)) != f.deg {
				t.Fatalf("node %d: the pinned parent changed under the batch", v)
			}
		}
	})
}

// chunkedFixture is a graph of three full chunks and a partial fourth
// (n = 3·1,024 + 77: a ring plus random chords) with a batch that touches
// rows 1,023 and 1,024, the two sides of the first chunk boundary, and row
// n−1 in the partial chunk, by a set, adds, a remove and a set that inserts.
// rebuilt is a from-scratch build of the topology after the batch.
func chunkedFixture(t *testing.T) (base *graph.MemGraph, ops []EdgeOp, rebuilt *graph.MemGraph) {
	t.Helper()
	const n = 3*chunkSize + 77
	last := graph.NodeID(n - 1)
	type edge struct{ u, v graph.NodeID }
	norm := func(u, v graph.NodeID) edge { return edge{min(u, v), max(u, v)} }
	w := map[edge]float64{}
	rng := rand.New(rand.NewSource(3))
	for v := graph.NodeID(0); v < n; v++ {
		w[norm(v, (v+1)%n)] = float64(1 + rng.Intn(3))
	}
	for len(w) < 3*n {
		e := norm(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		if e.u != e.v && e != norm(1024, last) && e != norm(1023, last) {
			w[e] = float64(1 + rng.Intn(3))
		}
	}
	build := func() *graph.MemGraph {
		b := graph.NewBuilder(n)
		for e, x := range w {
			if err := b.AddEdge(e.u, e.v, x); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	base = build()
	ops = []EdgeOp{
		{Op: OpSet, U: 1023, V: 1024, W: 3.5}, // exists (ring)
		{Op: OpAdd, U: 1024, V: last, W: 2},
		{Op: OpAdd, U: 1023, V: last, W: 0.5},
		{Op: OpRemove, U: last, V: 1023},
		{Op: OpSet, U: last, V: 1023, W: 4}, // absent again: inserts
	}
	w[norm(1023, 1024)] = 3.5
	w[norm(1024, last)] = 2
	w[norm(1023, last)] = 4
	return base, ops, build()
}

func TestApplyAtomicAbort(t *testing.T) {
	// The second op of each batch is invalid; the first must not leak through.
	for _, bad := range []struct {
		name string
		op   EdgeOp
	}{
		{"edge exists", EdgeOp{Op: OpAdd, U: 0, V: 1, W: 1}},
		{"zero weight", EdgeOp{Op: OpAdd, U: 2, V: 6, W: 0}},
		{"NaN weight", EdgeOp{Op: OpAdd, U: 2, V: 6, W: math.NaN()}},
		{"NaN set", EdgeOp{Op: OpSet, U: 0, V: 1, W: math.NaN()}},
		{"+Inf weight", EdgeOp{Op: OpSet, U: 2, V: 6, W: math.Inf(1)}},
		{"-Inf weight", EdgeOp{Op: OpAdd, U: 2, V: 6, W: math.Inf(-1)}},
		{"degree overflows", EdgeOp{Op: OpSet, U: 1, V: 2, W: math.MaxFloat64}},
	} {
		lg := New(baseGraph(t))
		before := lg.Stats()
		first := EdgeOp{Op: OpAdd, U: 1, V: 5, W: 1}
		if bad.name == "degree overflows" {
			first.W = math.MaxFloat64 // node 1's two heavy edges sum to +Inf
		}
		if _, _, err := lg.Apply([]EdgeOp{first, bad.op}); err == nil {
			t.Fatalf("%s: expected error from invalid batch", bad.name)
		}
		after := lg.Stats()
		if after != before {
			t.Fatalf("%s: failed batch changed stats: %+v -> %+v", bad.name, before, after)
		}
		s := lg.Acquire()
		if s.Epoch() != 1 {
			t.Fatalf("%s: failed batch published epoch %d", bad.name, s.Epoch())
		}
		n, _ := row(s, 1)
		for _, u := range n {
			if u == 5 {
				t.Fatalf("%s: failed batch leaked edge (1,5)", bad.name)
			}
		}
		if err := mustValidate(s); err != nil {
			t.Fatalf("%s: %v", bad.name, err)
		}
		s.Release()
	}
}

func TestRemoveAndSet(t *testing.T) {
	lg := New(baseGraph(t))
	s, _, err := lg.Apply([]EdgeOp{
		{Op: OpRemove, U: 0, V: 4},
		{Op: OpSet, U: 0, V: 1, W: 9},
		{Op: OpSet, U: 2, V: 6, W: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, w := row(s, 0)
	for _, u := range n {
		if u == 4 {
			t.Fatal("removed edge (0,4) still present")
		}
	}
	seen := false
	for i, u := range n {
		if u == 1 {
			seen = true
			if w[i] != 9 {
				t.Fatalf("set edge (0,1) weight %g, want 9", w[i])
			}
		}
	}
	if !seen {
		t.Fatal("edge (0,1) lost by OpSet")
	}
	// OpSet on an absent edge inserts it.
	n, _ = row(s, 2)
	found := false
	for _, u := range n {
		if u == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("OpSet did not insert absent edge (2,6)")
	}
	if err := mustValidate(s); err != nil {
		t.Fatal(err)
	}
}

// mustValidate materializes the snapshot and runs MemGraph.Validate, checking
// symmetry, sortedness, and degree consistency of the mutated topology.
func mustValidate(s *Snapshot) error {
	m, err := s.Materialize()
	if err != nil {
		return err
	}
	return m.Validate()
}

func TestMaterializeMatchesSnapshot(t *testing.T) {
	lg := New(baseGraph(t))
	s, _, err := lg.Apply([]EdgeOp{
		{Op: OpAdd, U: 1, V: 5, W: 2.5},
		{Op: OpRemove, U: 3, V: 4},
		{Op: OpSet, U: 6, V: 7, W: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != s.NumNodes() || m.NumEdges() != s.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", m.NumNodes(), m.NumEdges(), s.NumNodes(), s.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < s.NumNodes(); v++ {
		sn, sw := s.Neighbors(v)
		mn, mw := m.Neighbors(v)
		if len(sn) != len(mn) {
			t.Fatalf("node %d: row length %d vs %d", v, len(sn), len(mn))
		}
		for i := range sn {
			if sn[i] != mn[i] || sw[i] != mw[i] {
				t.Fatalf("node %d: row differs at %d", v, i)
			}
		}
		if s.Degree(v) != m.Degree(v) {
			t.Fatalf("node %d: degree %v vs %v", v, s.Degree(v), m.Degree(v))
		}
	}
	// TopDegrees must be byte-identical to the rebuilt graph's index.
	st := s.TopDegrees(s.NumNodes())
	mt := m.TopDegrees(m.NumNodes())
	if len(st) != len(mt) {
		t.Fatalf("top-degree length %d vs %d", len(st), len(mt))
	}
	for i := range st {
		if st[i] != mt[i] {
			t.Fatalf("top-degree entry %d: %+v vs %+v", i, st[i], mt[i])
		}
	}

	t.Run("chunked", func(t *testing.T) {
		base, ops, rebuilt := chunkedFixture(t)
		s, _, err := New(base).Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.MemGraph{m, rebuilt} {
			if g.NumNodes() != s.NumNodes() || g.NumEdges() != s.NumEdges() {
				t.Fatalf("size mismatch: %d/%d vs %d/%d", g.NumNodes(), g.NumEdges(), s.NumNodes(), s.NumEdges())
			}
			for v := graph.NodeID(0); int(v) < s.NumNodes(); v++ {
				sn, sw := s.Neighbors(v)
				gn, gw := g.Neighbors(v)
				if !slices.Equal(sn, gn) || !slices.Equal(sw, gw) || s.Degree(v) != g.Degree(v) {
					t.Fatalf("node %d: snapshot row differs from a rebuild", v)
				}
			}
			if !slices.Equal(s.TopDegrees(s.NumNodes()), g.TopDegrees(g.NumNodes())) {
				t.Fatal("top-degree index differs from a rebuild")
			}
		}
	})
}

// TestApplyAllocatesTouchedChunksOnly: a one-op batch on a graph of more
// than 100k nodes allocates less than one n-length array of float64s — the
// smallest of the three n-length arrays a batch copied when the snapshot
// kept its rows in flat per-node arrays.
func TestApplyAllocatesTouchedChunksOnly(t *testing.T) {
	const n = 100*chunkSize + 5
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		if err := b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%n), 1); err != nil {
			t.Fatal(err)
		}
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lg := New(base)
	const batches = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		// Set an existing ring edge, spread over the graph; degrees only
		// rise above the ring's 2, so the degree index is patched, never
		// rebuilt.
		v := graph.NodeID(i * 2477 % (n - 1))
		if _, _, err := lg.Apply([]EdgeOp{{Op: OpSet, U: v, V: v + 1, W: float64(2 + i%2)}}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / batches
	if limit := uint64(8 * n); perBatch >= limit {
		t.Fatalf("a one-op batch allocates %d B, want < %d B (8 B per node)", perBatch, limit)
	}
	t.Logf("a one-op batch allocates %d B on %d nodes", perBatch, n)
}

func TestAliveGaugeAndReclamation(t *testing.T) {
	lg := New(baseGraph(t))
	if got := lg.Stats().SnapshotsAlive; got != 1 {
		t.Fatalf("alive = %d, want 1", got)
	}
	s1 := lg.Acquire() // pin epoch 1
	if _, _, err := lg.Apply([]EdgeOp{{Op: OpAdd, U: 1, V: 5, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 is pinned by s1, epoch 2 is current: both alive.
	if got := lg.Stats().SnapshotsAlive; got != 2 {
		t.Fatalf("alive = %d, want 2 (one pinned, one current)", got)
	}
	s1.Release()
	if got := lg.Stats().SnapshotsAlive; got != 1 {
		t.Fatalf("alive after release = %d, want 1", got)
	}
	if got := lg.Stats().SnapshotsTotal; got != 2 {
		t.Fatalf("total = %d, want 2", got)
	}
}

func TestConcurrentPinnedReadsUnderWrites(t *testing.T) {
	lg := New(baseGraph(t))
	const writers = 2
	const readers = 6
	stop := make(chan struct{})
	var wgW, wgR sync.WaitGroup

	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(id int) {
			defer wgW.Done()
			// Each writer toggles its own private edge so batches never
			// conflict logically; Apply serializes them anyway.
			u := graph.NodeID(id)
			v := graph.NodeID(id + 4)
			present := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var ops []EdgeOp
				if present {
					ops = []EdgeOp{{Op: OpRemove, U: u, V: v}}
				} else {
					ops = []EdgeOp{{Op: OpSet, U: u, V: v, W: 1 + float64(i%7)}}
				}
				if _, _, err := lg.Apply(ops); err != nil {
					// The edge may pre-exist in the base; flip state and retry.
					present = !present
					continue
				}
				present = !present
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			for i := 0; i < 300; i++ {
				s := lg.Acquire()
				// A pinned snapshot must be internally consistent: every
				// row sorted, every degree equal to its row sum, symmetric.
				for v := graph.NodeID(0); int(v) < s.NumNodes(); v++ {
					nbrs, ws := s.Neighbors(v)
					var sum float64
					for j, u := range nbrs {
						if j > 0 && nbrs[j-1] >= u {
							t.Errorf("epoch %d node %d: unsorted row", s.Epoch(), v)
							s.Release()
							return
						}
						sum += ws[j]
					}
					if d := s.Degree(v); d != sum {
						t.Errorf("epoch %d node %d: degree %g != row sum %g", s.Epoch(), v, d, sum)
						s.Release()
						return
					}
				}
				s.Release()
			}
		}()
	}
	// Readers run a bounded workload; once they drain, stop the writers.
	wgR.Wait()
	close(stop)
	wgW.Wait()

	if lg.Stats().SnapshotsAlive != 1 {
		t.Fatalf("alive = %d after all releases, want 1", lg.Stats().SnapshotsAlive)
	}
}

// TestTopDegreesCarriedForward: the degree index a snapshot inherits and
// patches equals the one a from-scratch rebuild of the same topology serves,
// entry for entry, after every batch of a seeded add / remove / set stream:
// unit weights (degree ties), index members stripped to degree 0 (the index
// runs short and is rebuilt), outsiders raised into it, and a graph small
// enough that the index holds every node.
func TestTopDegreesCarriedForward(t *testing.T) {
	for _, tc := range []struct {
		n, m, batches int
	}{
		{5000, 7500, 500}, // index = the 4,096 largest of 5,000
		{300, 600, 1500},  // index = every node
	} {
		if testing.Short() {
			tc.batches /= 4
		}
		rng := rand.New(rand.NewSource(int64(tc.n)))
		type edge struct{ u, v graph.NodeID }
		norm := func(u, v graph.NodeID) edge { return edge{min(u, v), max(u, v)} }
		present := map[edge]bool{}
		var edges []edge // may hold removed edges; present decides
		b := graph.NewBuilder(tc.n)
		for len(present) < tc.m {
			e := norm(graph.NodeID(rng.Intn(tc.n)), graph.NodeID(rng.Intn(tc.n)))
			if e.u == e.v || present[e] {
				continue
			}
			present[e] = true
			edges = append(edges, e)
			if err := b.AddEdge(e.u, e.v, 1); err != nil {
				t.Fatal(err)
			}
		}
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		lg := New(base)

		rebuilds := 0 // batches whose index patch ran short and was rebuilt
		for batch := 0; batch < tc.batches; batch++ {
			var ops []EdgeOp
			switch {
			case batch%23 == 5:
				// Strip a node from the upper half of the index of every edge.
				s := lg.Acquire()
				top := s.TopDegrees(4096)
				v := top[rng.Intn(len(top)/2)].Node
				nbrs, _ := s.Neighbors(v)
				for _, u := range nbrs {
					ops = append(ops, EdgeOp{Op: OpRemove, U: v, V: u})
					present[norm(u, v)] = false
				}
				s.Release()
			default:
				seen := map[edge]bool{} // one op per edge per batch
				for len(ops) < 1+rng.Intn(4) {
					e := norm(graph.NodeID(rng.Intn(tc.n)), graph.NodeID(rng.Intn(tc.n)))
					if r := rng.Intn(3); r > 0 && len(edges) > 0 {
						e = edges[rng.Intn(len(edges))] // an edge that exists, or did
					}
					if e.u == e.v || seen[e] {
						continue
					}
					seen[e] = true
					switch {
					case !present[e]:
						ops = append(ops, EdgeOp{Op: OpAdd, U: e.u, V: e.v, W: 1})
						present[e] = true
						edges = append(edges, e)
					case rng.Intn(2) == 0:
						ops = append(ops, EdgeOp{Op: OpRemove, U: e.u, V: e.v})
						present[e] = false
					default:
						ops = append(ops, EdgeOp{Op: OpSet, U: e.v, V: e.u, W: float64(1 + rng.Intn(3))})
					}
				}
			}
			parent := lg.Acquire()
			snap, touched, err := lg.Apply(ops)
			if err != nil {
				t.Fatalf("n=%d batch %d: %v", tc.n, batch, err)
			}
			if _, ok := patchTopDegrees(parent.top, touched, snap.Degree); !ok {
				rebuilds++
			}
			parent.Release()
			world, err := snap.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			got, want := snap.TopDegrees(4096), world.TopDegrees(4096)
			if !slices.Equal(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("n=%d batch %d (%d ops): %d entries, want %d; first difference at %d: %+v, want %+v",
							tc.n, batch, len(ops), len(got), len(want), i, got[min(i, len(got)-1)], want[i])
					}
				}
				t.Fatalf("n=%d batch %d: %d entries, want %d", tc.n, batch, len(got), len(want))
			}
		}
		t.Logf("n=%d: %d of %d batches rebuilt the index", tc.n, rebuilds, tc.batches)
		if rebuilds == 0 {
			t.Fatalf("n=%d: no batch reached the rebuild fallback", tc.n)
		}
	}
}
