package diskgraph

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
)

// TestCorruptDegrees: Open refuses a node table holding a degree that is
// not finite and non-negative, naming the node. The node lies outside the
// 4,096-entry top-degree index, so only the table check can see it; the
// shell bound divides by a shell node's degree, and a NaN there would drop
// the node out of the bound without a trace.
func TestCorruptDegrees(t *testing.T) {
	g, err := gen.RMAT(5000, 20000, gen.DefaultRMAT(), 3)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[graph.NodeID]bool{}
	for _, e := range g.TopDegrees(4096) {
		listed[e.Node] = true
	}
	v := int64(0)
	for listed[graph.NodeID(v)] {
		v++
	}
	path := writeStore(t, g, 4096)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	degreesOff := newLayout(int64(g.NumNodes()), 0, 4096).degreesOff
	for _, d := range []float64{math.NaN(), -1, math.Inf(1)} {
		data := append([]byte(nil), clean...)
		putU64(data[degreesOff+8*v:], math.Float64bits(d))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, 0)
		if err == nil {
			s.Close()
			t.Errorf("degree %g at node %d: Open accepted the store", d, v)
			continue
		}
		if want := fmt.Sprintf("corrupt degrees: node %d has degree %g", v, d); !strings.Contains(err.Error(), want) {
			t.Errorf("degree %g at node %d: Open returned %q, want %q", d, v, err, want)
		}
	}
}

// FuzzOpenStore: on any bytes, Open either refuses the store or returns one
// whose every row reads without panicking, whose every degree is finite and
// non-negative, and whose top-degree index lists nodes in range, heaviest
// first, at their node-table degrees. Neighbour ids inside rows are not
// checked.
func FuzzOpenStore(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.flos")
	if err := Create(path, gen.PaperExample(), 512); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	flipped := append([]byte(nil), clean...)
	flipped[align8(headerFixed)+7] ^= 0x80 // node 0's degree turns negative
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.flos")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, 4096)
		if err != nil {
			return
		}
		defer s.Close()
		n := s.NumNodes()
		for v := 0; v < n; v++ {
			s.Neighbors(graph.NodeID(v))
			if d := s.Degree(graph.NodeID(v)); !(d >= 0) || math.IsInf(d, 1) {
				t.Fatalf("node %d has degree %g", v, d)
			}
		}
		top := s.TopDegrees(n)
		for i, e := range top {
			if e.Node < 0 || int(e.Node) >= n {
				t.Fatalf("entry %d names node %d of %d", i, e.Node, n)
			}
			if e.Degree != s.Degree(e.Node) {
				t.Fatalf("entry %d: node %d degree %g, table %g", i, e.Node, e.Degree, s.Degree(e.Node))
			}
			if i > 0 && e.Degree > top[i-1].Degree {
				t.Fatalf("entry %d (degree %g) heavier than entry %d (degree %g)", i, e.Degree, i-1, top[i-1].Degree)
			}
		}
	})
}
