package diskgraph

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	"flos/internal/graph"
	"flos/internal/obs/cachelens"
)

// Store is a read-only disk-resident graph implementing graph.Graph. Its
// node table (every degree and CSR offset, 16 bytes per node) is read into
// memory at Open, so a visit costs one ReadAt of exactly the row's bytes,
// or none for a pinned hub row (pinSet) once that row has been read. The
// Store's own Neighbors reuses one scratch buffer, so it serves one reader
// at a time; concurrent queries each take a view via NewReader.
type Store struct {
	f   *os.File
	src io.ReaderAt // the rows' source: f, or a test's wrapper of it
	l   layout
	top []graph.DegreeEntry

	// deg and off are the node table: deg[v] is v's weighted degree and v's
	// row is half-edges [off[v], off[v+1]). Open validated off; every Reader
	// shares both read-only.
	deg []float64
	off []int64

	pin          *pinSet
	hits, misses atomic.Int64

	// lens, when non-nil, samples row lookups keyed by node (AttachLens).
	lens *cachelens.Lens

	// def is the Store's own reader view, backing the graph.Graph methods
	// for single-goroutine use.
	def Reader
}

var _ graph.Graph = (*Store)(nil)

// Reader is an independent view of a Store for one goroutine: it shares the
// store's node table and pinned rows but owns the scratch buffers Neighbors
// returns.
type Reader struct {
	s        *Store
	scratchN []graph.NodeID
	scratchW []float64
	buf      []byte

	// fault, when set, observes the stall of every row this Reader reads
	// from the file.
	fault func(time.Duration)
}

var _ graph.Graph = (*Reader)(nil)

// NewReader returns a fresh concurrent-safe view of the store.
func (s *Store) NewReader() *Reader { return &Reader{s: s} }

// NewView implements graph.Viewer: each view is an independent Reader.
func (s *Store) NewView() graph.Graph { return s.NewReader() }

// NewView implements graph.Viewer with a sibling Reader.
func (r *Reader) NewView() graph.Graph { return r.s.NewReader() }

// Open opens the store at path with a budget of pinBytes bytes of pinned
// rows (0 selects 64 MiB). It reads and checks the header and the node
// table, builds the top-degree index from the degrees and chooses the rows
// to pin (newPinSet); rows are read on demand. The node table and the
// pinned index (0.2 B per node plus 12 B per pinned row) sit outside the
// budget.
func Open(path string, pinBytes int64) (_ *Store, err error) {
	if pinBytes <= 0 {
		pinBytes = 64 << 20
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	hdr := make([]byte, headerFixed)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, err
	}
	switch got := string(hdr[:8]); got {
	case magic:
	case "FLOSDSK1", "FLOSDSK2":
		return nil, fmt.Errorf("diskgraph: %s: %s store, which this version no longer reads; rebuild the store from its graph (flosgen -format store, or Create)", path, got)
	default:
		return nil, fmt.Errorf("diskgraph: %s: bad magic", path)
	}
	l := newLayout(int64(getU64(hdr[8:16])), int64(getU64(hdr[16:24])), int64(getU32(hdr[24:28])))
	if err := l.validate(); err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() != l.totalSize {
		return nil, fmt.Errorf("diskgraph: %s: size %d, layout wants %d", path, fi.Size(), l.totalSize)
	}
	deg, off, err := readNodeTable(f, l)
	if err != nil {
		return nil, fmt.Errorf("diskgraph: %s: %w", path, err)
	}
	s := &Store{f: f, src: f, l: l, top: graph.TopDegreeIndex(deg), deg: deg, off: off, pin: newPinSet(off, pinBytes)}
	s.def.s = s
	return s, nil
}

// Close releases the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return int(s.l.n) }

// NumEdges returns the undirected edge count.
func (s *Store) NumEdges() int64 { return s.l.m2 / 2 }

// TopDegrees serves the degree index Open built from the node table.
func (s *Store) TopDegrees(k int) []graph.DegreeEntry { return s.top[:min(k, len(s.top))] }

// Degree returns v's weighted degree from the node table; it reads no row.
func (s *Store) Degree(v graph.NodeID) float64 { return s.deg[v] }

// Neighbors reads v's row through the store's own Reader; concurrent
// callers must use NewReader.
func (s *Store) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	return s.def.Neighbors(v)
}

// NumNodes returns the node count.
func (r *Reader) NumNodes() int { return r.s.NumNodes() }

// NumEdges returns the undirected edge count.
func (r *Reader) NumEdges() int64 { return r.s.NumEdges() }

// Degree returns v's weighted degree from the node table; it reads no row.
func (r *Reader) Degree(v graph.NodeID) float64 { return r.s.deg[v] }

// SetFaultObserver installs (or clears, with nil) a callback invoked on
// the reading goroutine with the stall of every row this Reader reads from
// the file, the hook that attributes disk time to a query's trace; pinned
// reads never invoke it. Not safe concurrently with reads on this Reader.
func (r *Reader) SetFaultObserver(fn func(time.Duration)) { r.fault = fn }

// TopDegrees serves the store's degree index.
func (r *Reader) TopDegrees(k int) []graph.DegreeEntry { return r.s.TopDegrees(k) }

// Neighbors returns v's row, valid until the next call and not to be
// written: a ready pinned row from memory, any other with one ReadAt. The
// first read of a pinned row fills its slot; a reader that finds the slot
// being filled reads the file itself rather than wait. A row the file no
// longer yields panics with an error wrapping graph.ErrStorage, which the
// search workspace returns as the query's error.
func (r *Reader) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	s := r.s
	cnt := s.off[v+1] - s.off[v]
	if cnt == 0 {
		return r.scratchN[:0], r.scratchW[:0]
	}
	s.lens.RecordGet(uint64(v))
	if i := s.pin.slot(v); i >= 0 {
		st := &s.pin.state[i]
		nbrs, ws := s.pin.row(i)
		if st.Load() == slotReady {
			s.hits.Add(1)
			return nbrs, ws
		}
		if st.CompareAndSwap(slotEmpty, slotFilling) {
			if err := r.read(v, nbrs, ws); err != nil {
				st.Store(slotEmpty)
				panic(err)
			}
			s.pin.filledRows.Add(1)
			s.pin.filledBytes.Add(cnt * rowEntrySz)
			st.Store(slotReady)
			return nbrs, ws
		}
	}
	if int64(cap(r.scratchN)) < cnt {
		r.scratchN = make([]graph.NodeID, cnt, 2*cnt)
		r.scratchW = make([]float64, cnt, 2*cnt)
	}
	nbrs, ws := r.scratchN[:cnt], r.scratchW[:cnt]
	if err := r.read(v, nbrs, ws); err != nil {
		panic(err)
	}
	return nbrs, ws
}

// read fills nbrs and ws with v's row from one ReadAt of the row's bytes. A
// short read is an error wrapping graph.ErrStorage.
func (r *Reader) read(v graph.NodeID, nbrs []graph.NodeID, ws []float64) error {
	s := r.s
	cnt := int64(len(nbrs))
	need := cnt * rowEntrySz
	if int64(cap(r.buf)) < need {
		r.buf = make([]byte, need, 2*need)
	}
	row := r.buf[:need]
	var start time.Time
	if r.fault != nil {
		start = time.Now()
	}
	s.misses.Add(1)
	n, err := s.src.ReadAt(row, s.l.rowsOff+s.off[v]*rowEntrySz)
	if r.fault != nil {
		r.fault(time.Since(start))
	}
	if n < len(row) {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: diskgraph: row of node %d: %w", graph.ErrStorage, v, err)
	}
	tb, wb := row[:cnt*4], row[cnt*4:]
	for i := range nbrs {
		nbrs[i] = graph.NodeID(getU32(tb[i*4:]))
		ws[i] = math.Float64frombits(getU64(wb[i*8:]))
	}
	return nil
}

// AttachLens samples row lookups into a cachelens.Lens: every Neighbors
// call of a non-empty row from here on, pinned or not, reaches it once,
// keyed by node. A zero cfg.Capacity becomes the pinned row count (the 1x
// point of the MRC). Call before serving traffic, and Close the lens on
// shutdown when cfg.TickEvery is set.
func (s *Store) AttachLens(cfg cachelens.Config) *cachelens.Lens {
	if cfg.Capacity <= 0 {
		cfg.Capacity = len(s.pin.state)
	}
	s.lens = cachelens.New(cfg)
	return s.lens
}

// Lens returns the attached analytics lens, or nil when analytics are off.
func (s *Store) Lens() *cachelens.Lens { return s.lens }

// Stats counts the store's row reads since Open: Hits are served by pinned
// rows, Misses read from the file (one ReadAt each; the paper's page
// faults). PinnedRows and ResidentBytes count the pinned rows filled so far
// and their bytes, 12 per half-edge, never more than the budget.
type Stats struct {
	Hits, Misses  int64
	ResidentBytes int64
	PinnedRows    int
}

// CacheStats reports the row reads since Open, each counter read on its own.
func (s *Store) CacheStats() Stats {
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		ResidentBytes: s.pin.filledBytes.Load(),
		PinnedRows:    int(s.pin.filledRows.Load()),
	}
}

// FileSize returns the store's on-disk size in bytes (the paper's Table 7
// "disk size" column).
func (s *Store) FileSize() int64 { return s.l.totalSize }

// tableChunk bounds the buffer Open decodes the node table through, so
// opening a store never holds a second copy of the table.
const tableChunk = 64 << 10

// readNodeTable reads the degrees and offsets sections of the store behind
// f and checks them: every degree is finite and non-negative (the shell
// bound and the RWR guard divide by and compare against them), and the
// offsets cut the rows section into one row per node: offsets[0] is 0, no
// row ends before it starts or past the m2 half-edges, and the last row ends
// at m2. A violation names the first bad node.
func readNodeTable(f io.ReaderAt, l layout) ([]float64, []int64, error) {
	r := io.NewSectionReader(f, l.degreesOff, l.rowsOff-l.degreesOff)
	buf := make([]byte, tableChunk)
	deg := make([]float64, l.n)
	if err := readWords(r, buf, deg, math.Float64frombits); err != nil {
		return nil, nil, fmt.Errorf("read degrees: %w", err)
	}
	for v, d := range deg {
		if !(d >= 0) || math.IsInf(d, 1) {
			return nil, nil, fmt.Errorf("corrupt degrees: node %d has degree %g", v, d)
		}
	}
	off := make([]int64, l.n+1)
	if err := readWords(r, buf, off, func(u uint64) int64 { return int64(u) }); err != nil {
		return nil, nil, fmt.Errorf("read offsets: %w", err)
	}
	if off[0] != 0 {
		return nil, nil, fmt.Errorf("corrupt offsets: node 0 starts at %d, want 0", off[0])
	}
	for v := int64(0); v < l.n; v++ {
		if lo, hi := off[v], off[v+1]; hi < lo || hi > l.m2 {
			return nil, nil, fmt.Errorf("corrupt offsets: node %d has row [%d,%d), which is reversed or ends past the %d half-edges", v, lo, hi, l.m2)
		}
	}
	if end := off[l.n]; end != l.m2 {
		return nil, nil, fmt.Errorf("corrupt offsets: node %d ends at %d, header says %d half-edges", l.n-1, end, l.m2)
	}
	return deg, off, nil
}

// readWords fills dst with consecutive little-endian 64-bit words from r,
// decoding them through buf.
func readWords[T float64 | int64](r io.Reader, buf []byte, dst []T, conv func(uint64) T) error {
	for len(dst) > 0 {
		c := min(len(dst), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return err
		}
		for i := range dst[:c] {
			dst[i] = conv(getU64(buf[i*8:]))
		}
		dst = dst[c:]
	}
	return nil
}
