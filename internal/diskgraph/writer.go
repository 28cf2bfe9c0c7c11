package diskgraph

import (
	"bufio"
	"fmt"
	"math"
	"os"

	"flos/internal/graph"
)

// Create serializes g into a store file at path. pageSize 0 selects
// DefaultPageSize. The writer streams sequentially — it never needs the
// page cache — so graphs larger than memory can be produced by first
// building them in chunks elsewhere; for this module's experiments the
// in-memory generator output is written directly.
func Create(path string, g *graph.MemGraph, pageSize int) error {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	n := int64(g.NumNodes())
	targets := g.Targets()
	weights := g.Weights()
	offsets := g.Offsets()
	m2 := int64(len(targets))

	l := newLayout(n, m2, int64(pageSize))
	if err := l.validate(); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	written := int64(0)
	emit := func(b []byte) error {
		nn, err := w.Write(b)
		written += int64(nn)
		return err
	}

	var b8 [8]byte
	var b4 [4]byte

	// Header.
	if err := emit([]byte(magic)); err != nil {
		return fail(f, err)
	}
	putU64(b8[:], uint64(n))
	if err := emit(b8[:]); err != nil {
		return fail(f, err)
	}
	putU64(b8[:], uint64(m2))
	if err := emit(b8[:]); err != nil {
		return fail(f, err)
	}
	putU32(b4[:], uint32(pageSize))
	if err := emit(b4[:]); err != nil {
		return fail(f, err)
	}
	if err := pad(emit, l.degreesOff-written); err != nil {
		return fail(f, err)
	}

	// Degrees.
	for v := int64(0); v < n; v++ {
		putU64(b8[:], math.Float64bits(g.Degree(graph.NodeID(v))))
		if err := emit(b8[:]); err != nil {
			return fail(f, err)
		}
	}
	// Offsets.
	for _, o := range offsets {
		putU64(b8[:], uint64(o))
		if err := emit(b8[:]); err != nil {
			return fail(f, err)
		}
	}
	// Rows: each node's targets, then its weights, as one record.
	for v := int64(0); v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		for _, t := range targets[lo:hi] {
			putU32(b4[:], uint32(t))
			if err := emit(b4[:]); err != nil {
				return fail(f, err)
			}
		}
		for _, wt := range weights[lo:hi] {
			putU64(b8[:], math.Float64bits(wt))
			if err := emit(b8[:]); err != nil {
				return fail(f, err)
			}
		}
	}
	if written != l.totalSize {
		f.Close()
		return fmt.Errorf("diskgraph: wrote %d bytes, layout says %d", written, l.totalSize)
	}
	if err := w.Flush(); err != nil {
		return fail(f, err)
	}
	return f.Close()
}

func fail(f *os.File, err error) error {
	f.Close()
	return err
}

func pad(emit func([]byte) error, count int64) error {
	if count < 0 {
		return fmt.Errorf("diskgraph: negative padding %d", count)
	}
	zeros := make([]byte, count)
	return emit(zeros)
}
