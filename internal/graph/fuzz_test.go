package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets: the two parsers consume external bytes and must never
// panic; any graph they accept must pass structural validation. Run with
// `go test -fuzz=FuzzReadEdgeList ./internal/graph` to explore beyond the
// seed corpus; plain `go test` replays the seeds.

func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n0 1 2.5\n")
	f.Add("0 0\n")
	f.Add("a b c\n")
	f.Add("0 1\n\n\n2 3 -1\n")
	f.Add("999999999999 2\n")
	f.Add("666666660 0\n")
	f.Add("0 1 1e308\n0 1 1e308\n")
	f.Fuzz(func(t *testing.T, in string) {
		// ReadEdgeList is parseEdgeList then Build; the two steps are taken
		// apart so Build can be checked against referenceBuild. A large node
		// ID makes a graph of that many nodes, so the reference, which
		// doubles the memory, is built only up to 2^20 nodes.
		b, err := parseEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var ref *MemGraph
		var refErr error
		checkRef := b.n <= 1<<20
		if checkRef {
			ref, refErr = referenceBuild(b.n, slices.Clone(b.us), slices.Clone(b.vs), slices.Clone(b.ws))
		}
		g, err := b.Build()
		if checkRef {
			if err := sameBits(g, ref, err, refErr); err != nil {
				t.Fatalf("%v\ninput: %q", err, in)
			}
		}
		if err != nil {
			return
		}
		if g.NumNodes() == 0 {
			t.Fatal("accepted an empty graph")
		}
		// Structural invariants must hold for anything accepted. (Validate
		// tolerates summed duplicate weights up to float noise.)
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v\ninput: %q", err, in)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a genuine serialization and a few corruptions of it.
	g := MustFromEdges(4, 0, 1, 1, 2, 2, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	nanWeight := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(nanWeight[len(nanWeight)-8:], math.Float64bits(math.NaN()))
	f.Add(nanWeight)
	f.Add(append([]byte("FLOSCSR1"), bytes.Repeat([]byte{0xFF}, 64)...))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		// Every weight of an accepted graph is positive and finite, and so
		// is every degree of a node with edges.
		for i, w := range g.weights {
			if !(w > 0) || math.IsInf(w, 1) {
				t.Fatalf("accepted weight %g at entry %d", w, i)
			}
		}
		for v, d := range g.degrees {
			if math.IsInf(d, 1) || math.IsNaN(d) {
				t.Fatalf("accepted degree %g at node %d", d, v)
			}
		}
		// Whatever decodes must at least be internally consistent enough to
		// serve reads without panicking.
		n := g.NumNodes()
		for v := 0; v < n && v < 64; v++ {
			nbrs, ws := g.Neighbors(NodeID(v))
			if len(nbrs) != len(ws) {
				t.Fatal("ragged adjacency")
			}
			_ = g.Degree(NodeID(v))
		}
	})
}
