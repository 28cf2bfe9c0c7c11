package diskgraph

import (
	"bufio"
	"fmt"
	"math"
	"os"

	"flos/internal/graph"
)

// Create serializes g into a store file at path. pageSize 0 selects
// DefaultPageSize. The writer streams sequentially, so graphs larger than
// memory can be produced by first building them in chunks elsewhere; for
// this module's experiments the in-memory generator output is written
// directly.
func Create(path string, g *graph.MemGraph, pageSize int) error {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	n := int64(g.NumNodes())
	targets, weights, offsets := g.Targets(), g.Weights(), g.Offsets()
	l := newLayout(n, int64(len(targets)), int64(pageSize))
	if err := l.validate(); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps its first error and refuses every later write,
	// so the writes go unchecked and Flush reports the first failure.
	w := bufio.NewWriterSize(f, 1<<20)
	var b [8]byte
	u64 := func(v uint64) { putU64(b[:], v); w.Write(b[:8]) }
	u32 := func(v uint32) { putU32(b[:], v); w.Write(b[:4]) }

	w.WriteString(magic)
	u64(uint64(n))
	u64(uint64(l.m2))
	u32(uint32(pageSize))
	w.Write(make([]byte, l.degreesOff-headerFixed))
	for v := range n {
		u64(math.Float64bits(g.Degree(graph.NodeID(v))))
	}
	for _, o := range offsets {
		u64(uint64(o))
	}
	// Rows: each node's targets, then its weights, as one record.
	for v := range n {
		lo, hi := offsets[v], offsets[v+1]
		for _, t := range targets[lo:hi] {
			u32(uint32(t))
		}
		for _, wt := range weights[lo:hi] {
			u64(math.Float64bits(wt))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != l.totalSize {
		f.Close()
		if err == nil {
			err = fmt.Errorf("diskgraph: wrote %d bytes, layout says %d", fi.Size(), l.totalSize)
		}
		return err
	}
	return f.Close()
}
