// Package diskgraph is the disk-resident graph substrate standing in for
// the Neo4j 2.0 store the paper uses in Section 6.4. It keeps the entire
// graph — degrees, CSR offsets and one adjacency record per node — in a
// single file. Open reads the node table (degrees and offsets, 16 bytes per
// node) into memory; each adjacency record is read from the file when it
// is visited, one ReadAt of exactly its bytes, except the hub rows a byte
// budget pins in memory after their first read (the paper's "memory usage
// restricted to 2 GB" setup). The kernel's page cache and readahead sit
// under the reads; the store keeps no page cache of its own.
//
// The Store satisfies graph.Graph, so FLoS runs on it unmodified: exactly
// the paper's observation that FLoS "only calls some basic query functions
// provided by Neo4j, such as querying the neighbors of one node".
package diskgraph

import (
	"encoding/binary"
	"fmt"
)

// Layout of the store file (little endian):
//
//	magic   "FLOSDSK3"                          8 B
//	n       uint64                              8 B
//	m2      uint64  (half-edge count = 2m)      8 B
//	pageSz  uint32                              4 B
//	-- sections, each 8-byte aligned --
//	degrees n × float64                         (from offset 32)
//	offsets (n+1) × int64
//	rows    m2 × 12 B
//
// Node v's row is one contiguous record at rowsOff + 12·offsets[v]: its cnt
// targets (uint32 each) followed by its cnt weights (float64 each). Open
// reads the degrees and offsets sections into memory, so a degree probe
// reads no row and a visit costs one row read, and it builds the
// top-degree index from the degrees, so the file stores nothing derived.

const (
	magic       = "FLOSDSK3"
	headerFixed = 8 + 8 + 8 + 4
	// rowEntrySz is one half-edge in a row record: a uint32 target and a
	// float64 weight.
	rowEntrySz = 4 + 8
	// DefaultPageSize is the page size Create records when given 0. Open
	// validates the recorded size and reads rows without it: a row read is
	// exactly the row's bytes at any page size.
	DefaultPageSize = 64 << 10
)

// layout precomputes the absolute byte offsets of every section.
type layout struct {
	n      int64
	m2     int64
	pageSz int64

	degreesOff int64
	offsetsOff int64
	rowsOff    int64
	totalSize  int64
}

func newLayout(n, m2, pageSz int64) layout {
	l := layout{n: n, m2: m2, pageSz: pageSz}
	pos := align8(headerFixed)
	l.degreesOff = pos
	pos += n * 8
	l.offsetsOff = pos
	pos += (n + 1) * 8
	l.rowsOff = pos
	pos += m2 * rowEntrySz
	l.totalSize = pos
	return l
}

func align8(x int64) int64 { return (x + 7) &^ 7 }

func (l layout) validate() error {
	if l.n <= 0 || l.n > 1<<31 {
		return fmt.Errorf("diskgraph: implausible node count %d", l.n)
	}
	if l.m2 < 0 || l.m2 > 1<<40 {
		return fmt.Errorf("diskgraph: implausible half-edge count %d", l.m2)
	}
	if l.pageSz < 512 || l.pageSz > 1<<26 {
		return fmt.Errorf("diskgraph: page size %d outside [512, 64Mi]", l.pageSz)
	}
	return nil
}

func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
