package diskgraph

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
)

// TestCorruptTopDegrees: Open refuses a header whose top-degree index
// disagrees with the node table, naming the bad entry. The paper example's
// index is {3 4} {2 3} {0 2} {1 2} {4 2} {5 2} {6 2} {7 1}.
func TestCorruptTopDegrees(t *testing.T) {
	path := writeStore(t, gen.PaperExample(), 4096)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(data []byte, i int) []byte { return data[headerFixed+i*topEntrySz:] }
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
		want    string
	}{
		{"node past n", func(d []byte) { putU32(entry(d, 0), 8) }, "entry 0 names node 8 of 8"},
		{"negative node", func(d []byte) { putU32(entry(d, 2), math.MaxUint32) }, "entry 2 names node -1 of 8"},
		{"degree not the table's", func(d []byte) { putU64(entry(d, 1)[4:], math.Float64bits(3.5)) }, "entry 1 gives node 2 degree 3.5"},
		{"out of order", func(d []byte) {
			var tmp [topEntrySz]byte
			copy(tmp[:], entry(d, 0))
			copy(entry(d, 0), entry(d, 1)[:topEntrySz])
			copy(entry(d, 1), tmp[:])
		}, "entry 1 (degree 4) is heavier than entry 0"},
		{"listed twice", func(d []byte) { copy(entry(d, 3), entry(d, 2)[:topEntrySz]) }, "entry 3 lists node 0 again"},
	} {
		data := append([]byte(nil), clean...)
		tc.corrupt(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, 0)
		if err == nil {
			s.Close()
			t.Errorf("%s: Open accepted the store", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "corrupt top-degree index: "+tc.want) {
			t.Errorf("%s: Open returned %q, want %q", tc.name, err, tc.want)
		}
	}

	// A short index must still hold every node heavier than its last entry.
	deg := []float64{2, 5, 1, 5}
	if err := checkTopDegrees([]graph.DegreeEntry{{Node: 1, Degree: 5}, {Node: 3, Degree: 5}}, deg); err != nil {
		t.Errorf("complete short index refused: %v", err)
	}
	if err := checkTopDegrees([]graph.DegreeEntry{{Node: 1, Degree: 5}, {Node: 0, Degree: 2}}, deg); err == nil ||
		!strings.Contains(err.Error(), "node 3 of degree 5 is heavier than its last entry but not listed") {
		t.Errorf("index missing node 3: %v", err)
	}
	if err := checkTopDegrees(nil, deg); err == nil {
		t.Error("empty index over a non-empty table accepted")
	}
}

// FuzzOpenStore: on any bytes, Open either refuses the store or returns one
// whose every row and degree reads without panicking and whose top-degree
// index lists nodes in range, heaviest first, at their node-table degrees.
// Neighbour ids inside rows are not checked.
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
	flipped[headerFixed+3] ^= 0x80 // entry 0's node id turns negative
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
			s.Degree(graph.NodeID(v))
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
