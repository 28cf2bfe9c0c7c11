package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Edge-list text format: one edge per line, "u v" or "u v w", '#'-prefixed
// comment lines ignored. This matches the SNAP download format the paper's
// real datasets ship in, so a user with the original Amazon/DBLP/Youtube/
// LiveJournal files can load them directly.

// ReadEdgeList parses a text edge list from r. Missing weights default to 1.
func ReadEdgeList(r io.Reader) (*MemGraph, error) {
	b, err := parseEdgeList(r)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// parseEdgeList adds every edge of a text edge list to a growing Builder.
func parseEdgeList(r io.Reader) (*Builder, error) {
	b := NewGrowingBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
		}
		if u == v {
			continue // SNAP files occasionally contain self loops; drop them
		}
		if err := b.AddEdge(NodeID(u), NodeID(v), w); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Node IDs are dense, so the largest one sizes the graph, at 16 B per
	// node before a single edge is placed. Like ReadBinary, which grows its
	// arrays only as bytes arrive, refuse to allocate far ahead of the
	// input: past the first 2^20 IDs, more than 64 per edge name a graph of
	// almost nothing but isolated nodes.
	if limit := 64*len(b.us) + 1<<20; b.n > limit {
		return nil, fmt.Errorf("graph: largest node ID %d needs %d nodes, more than the %d accepted for %d edges", b.n-1, b.n, limit, len(b.us))
	}
	return b, nil
}

// LoadEdgeList reads a text edge list file; see ReadEdgeList.
func LoadEdgeList(path string) (*MemGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadEdgeList(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}

// WriteEdgeList writes g as a text edge list (each undirected edge once,
// smaller endpoint first). Unit weights are omitted.
func WriteEdgeList(w io.Writer, g Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumNodes()
	fmt.Fprintf(bw, "# nodes=%d edges=%d\n", n, g.NumEdges())
	for v := 0; v < n; v++ {
		nbrs, ws := g.Neighbors(NodeID(v))
		for i, u := range nbrs {
			if u <= NodeID(v) {
				continue
			}
			if ws[i] == 1 {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			} else {
				fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
			}
		}
	}
	return bw.Flush()
}

// Binary CSR format, little endian:
//
//	magic "FLOSCSR1" (8 bytes)
//	n     uint64
//	m2    uint64 (number of half edges = 2m)
//	offsets [n+1]uint64
//	targets [m2]uint32
//	weights [m2]float64
//
// It exists so large synthetic graphs can be generated once and re-loaded by
// benches without paying the generator cost per run.

const csrMagic = "FLOSCSR1"

// binChunk is how many array entries WriteBinary and ReadBinary encode or
// decode per I/O call.
const binChunk = 1 << 16

// WriteBinary serializes g in the binary CSR format.
func WriteBinary(w io.Writer, g *MemGraph) error {
	var hdr [len(csrMagic) + 16]byte
	copy(hdr[:], csrMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumNodes()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(g.targets)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeChunked(w, g.offsets, 8, func(b []byte, o int64) {
		binary.LittleEndian.PutUint64(b, uint64(o))
	}); err != nil {
		return err
	}
	if err := writeChunked(w, g.targets, 4, func(b []byte, t NodeID) {
		binary.LittleEndian.PutUint32(b, uint32(t))
	}); err != nil {
		return err
	}
	return writeChunked(w, g.weights, 8, func(b []byte, wt float64) {
		binary.LittleEndian.PutUint64(b, math.Float64bits(wt))
	})
}

// writeChunked encodes xs, size bytes each, and writes binChunk entries per
// Write call.
func writeChunked[T any](w io.Writer, xs []T, size int, put func([]byte, T)) error {
	buf := make([]byte, min(len(xs), binChunk)*size)
	for len(xs) > 0 {
		k := min(len(xs), binChunk)
		for i, x := range xs[:k] {
			put(buf[i*size:], x)
		}
		if _, err := w.Write(buf[:k*size]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*MemGraph, error) {
	var hdr [len(csrMagic) + 16]byte
	if _, err := io.ReadFull(r, hdr[:len(csrMagic)]); err != nil {
		return nil, err
	}
	if magic := hdr[:len(csrMagic)]; string(magic) != csrMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	if _, err := io.ReadFull(r, hdr[len(csrMagic):]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	m2 := binary.LittleEndian.Uint64(hdr[16:24])
	if n == 0 || n > 1<<31 || m2 > 1<<40 {
		return nil, fmt.Errorf("graph: implausible header n=%d m2=%d", n, m2)
	}
	offsets, err := readChunked(r, n+1, 8, func(b []byte) int64 {
		return int64(binary.LittleEndian.Uint64(b))
	})
	if err != nil {
		return nil, err
	}
	targets, err := readChunked(r, m2, 4, func(b []byte) NodeID {
		return NodeID(binary.LittleEndian.Uint32(b))
	})
	if err != nil {
		return nil, err
	}
	weights, err := readChunked(r, m2, 8, func(b []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	})
	if err != nil {
		return nil, err
	}
	return FromCSR(offsets, targets, weights)
}

// readChunked decodes count entries of size bytes each, binChunk entries
// per read. The result grows as bytes actually arrive: a hostile header can
// declare billions of entries, and allocating up front would run out of
// memory before the truncated body is noticed.
func readChunked[T any](r io.Reader, count uint64, size int, get func([]byte) T) ([]T, error) {
	first := int(min64(int64(count), binChunk))
	buf := make([]byte, first*size)
	xs := make([]T, 0, first)
	for count > 0 {
		k := int(min64(int64(count), binChunk))
		if _, err := io.ReadFull(r, buf[:k*size]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			xs = append(xs, get(buf[i*size:]))
		}
		count -= uint64(k)
	}
	return xs, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// SaveBinary writes g to path in the binary CSR format.
func SaveBinary(path string, g *MemGraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a graph saved by SaveBinary.
func LoadBinary(path string) (*MemGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
