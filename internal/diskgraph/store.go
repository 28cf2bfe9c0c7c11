package diskgraph

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"flos/internal/graph"
	"flos/internal/obs/cachelens"
)

// Store is a read-only disk-resident graph. Its node table (every degree
// and CSR offset, 16 bytes per node) is read into memory at Open; the
// adjacency rows are served through a byte-budgeted, lock-striped page
// cache, in frames of one OS page at most, that reads a missing frame once,
// under its shard's lock. It implements graph.Graph. Neighbors returns
// scratch slices that are overwritten by the next Neighbors call — the same
// contract the interface documents — so the Store itself serves one reader
// at a time; concurrent queries each take their own view via NewReader,
// which shares the page cache (safe for any number of concurrent readers)
// but owns private scratch buffers.
type Store struct {
	f     *os.File
	l     layout
	cache *pageCache
	top   []graph.DegreeEntry

	// deg and off are the node table: deg[v] is v's weighted degree and v's
	// row is half-edges [off[v], off[v+1]). Open validated off; every Reader
	// shares both read-only.
	deg []float64
	off []int64

	// def is the Store's own reader view, backing the graph.Graph methods
	// for single-goroutine use.
	def Reader
}

var _ graph.Graph = (*Store)(nil)

// Reader is an independent view of a Store for one goroutine: it shares the
// store's page cache and node table but owns the scratch buffers Neighbors
// returns. Concurrent queries against one Store should each hold their own
// Reader; the Readers' combined page traffic shares one byte budget.
type Reader struct {
	s        *Store
	scratchN []graph.NodeID
	scratchW []float64
	buf      []byte

	// fault, when set, observes the stall of every page this Reader's own
	// lookups read from the file.
	fault func(time.Duration)
}

var _ graph.Graph = (*Reader)(nil)

// NewReader returns a fresh concurrent-safe view of the store.
func (s *Store) NewReader() *Reader { return &Reader{s: s} }

// NewView implements graph.Viewer: each view is an independent Reader, so
// concurrent query executors can parallelize over one Store.
func (s *Store) NewView() graph.Graph { return s.NewReader() }

// NewView implements graph.Viewer by minting a sibling Reader over the same
// store.
func (r *Reader) NewView() graph.Graph { return r.s.NewReader() }

// Open maps the store at path with the given cache budget in bytes
// (0 selects 64 MiB). The header and the node table are read eagerly, and a
// node table whose offsets do not describe the rows section, or whose
// degrees are not finite and non-negative, is refused; the top-degree index
// is built from the degrees, and the rows are paged on demand. The budget
// bounds page buffers only: the node table's 16 bytes per node sit outside
// it.
func Open(path string, cacheBytes int64) (*Store, error) {
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerFixed)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, err
	}
	switch got := string(hdr[:8]); got {
	case magic:
	case "FLOSDSK1", "FLOSDSK2":
		f.Close()
		return nil, fmt.Errorf("diskgraph: %s: %s store, which this version no longer reads; rebuild the store from its graph (flosgen -format store, or Create)", path, got)
	default:
		f.Close()
		return nil, fmt.Errorf("diskgraph: %s: bad magic", path)
	}
	n := int64(getU64(hdr[8:16]))
	m2 := int64(getU64(hdr[16:24]))
	pageSz := int64(getU32(hdr[24:28]))
	l := newLayout(n, m2, pageSz)
	if err := l.validate(); err != nil {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() != l.totalSize {
		f.Close()
		return nil, fmt.Errorf("diskgraph: %s: size %d, layout wants %d", path, fi.Size(), l.totalSize)
	}
	deg, off, err := readNodeTable(f, l)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskgraph: %s: %w", path, err)
	}
	s := &Store{
		f:     f,
		l:     l,
		cache: newPageCache(f, frameSize(pageSz), cacheBytes, l.totalSize),
		top:   graph.TopDegreeIndex(deg),
		deg:   deg,
		off:   off,
	}
	s.def.s = s
	return s, nil
}

// frameSize is the cache's unit for a store laid out in pageSz pages: one
// OS page at most, so a miss copies one OS page out of the kernel's cache
// however large the layout page is. Only the cache reads it; the file
// format keeps its page size.
func frameSize(pageSz int64) int64 { return min(pageSz, int64(os.Getpagesize())) }

// Close releases the underlying file.
func (s *Store) Close() error { return s.f.Close() }

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return int(s.l.n) }

// NumEdges returns the undirected edge count.
func (s *Store) NumEdges() int64 { return s.l.m2 / 2 }

// TopDegrees serves the degree index Open built from the node table.
func (s *Store) TopDegrees(k int) []graph.DegreeEntry {
	if k > len(s.top) {
		k = len(s.top)
	}
	return s.top[:k]
}

// Degree returns the weighted degree of v from the in-memory node table: it
// touches no page and is safe for concurrent use.
func (s *Store) Degree(v graph.NodeID) float64 { return s.deg[v] }

// Neighbors reads the CSR row of v through the store's default reader. The
// returned slices are valid until the next Neighbors call on this Store;
// concurrent callers must use NewReader.
func (s *Store) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	return s.def.Neighbors(v)
}

// NumNodes returns the node count.
func (r *Reader) NumNodes() int { return r.s.NumNodes() }

// NumEdges returns the undirected edge count.
func (r *Reader) NumEdges() int64 { return r.s.NumEdges() }

// Degree returns the weighted degree of v from the store's node table; it
// never reaches the page cache or the fault observer.
func (r *Reader) Degree(v graph.NodeID) float64 { return r.s.deg[v] }

// SetFaultObserver installs (or clears, with nil) a callback invoked with
// the stall duration of every page fault this Reader's reads incur — the
// hook the serving layer uses to attribute cold-path disk time to a query's
// trace. It fires only for the pages this Reader reads itself: a lookup that
// waited on the shard lock while another Reader read the same page is a hit
// and is not reported. The observer runs on the faulting goroutine after
// the shard lock is released; keep it cheap. Not safe to call concurrently
// with reads on the same Reader.
func (r *Reader) SetFaultObserver(fn func(time.Duration)) { r.fault = fn }

// TopDegrees serves the store's degree index.
func (r *Reader) TopDegrees(k int) []graph.DegreeEntry { return r.s.TopDegrees(k) }

// Neighbors reads the CSR row of v, one page-cache read of the bounds the
// node table gives. The returned slices are valid until the next Neighbors
// call on this Reader. A row the file no longer yields panics with an error
// wrapping graph.ErrStorage, which the search workspace returns as the
// query's error.
func (r *Reader) Neighbors(v graph.NodeID) ([]graph.NodeID, []float64) {
	s := r.s
	lo, hi := s.off[v], s.off[v+1]
	cnt := hi - lo
	if int64(cap(r.scratchN)) < cnt {
		r.scratchN = make([]graph.NodeID, cnt, 2*cnt)
		r.scratchW = make([]float64, cnt, 2*cnt)
	}
	nbrs := r.scratchN[:cnt]
	ws := r.scratchW[:cnt]

	need := cnt * rowEntrySz
	if int64(cap(r.buf)) < need {
		r.buf = make([]byte, need, 2*need)
	}
	row := r.buf[:need]
	if err := s.cache.readAt(row, s.l.rowsOff+lo*rowEntrySz, r.fault); err != nil {
		panic(fmt.Errorf("%w: diskgraph: row of node %d: %v", graph.ErrStorage, v, err))
	}
	tb, wb := row[:cnt*4], row[cnt*4:]
	for i := range nbrs {
		nbrs[i] = graph.NodeID(getU32(tb[i*4:]))
		ws[i] = math.Float64frombits(getU64(wb[i*8:]))
	}
	return nbrs, ws
}

// AttachLens enables cache analytics on the page cache: every page lookup
// from here on (hit or fault) reaches a cachelens.Lens once, whose
// miss-ratio curve and working-set windows are exported through the
// returned handle. A zero cfg.Capacity is filled from the store's
// geometry: it becomes the page budget (the 1x point of the MRC). Call
// before serving traffic — attaching is not synchronized with concurrent
// reads — and Close the returned lens on shutdown when cfg.TickEvery is set.
func (s *Store) AttachLens(cfg cachelens.Config) *cachelens.Lens {
	if cfg.Capacity <= 0 {
		for i := range s.cache.shards {
			cfg.Capacity += s.cache.shards[i].maxFrames
		}
	}
	s.cache.lens = cachelens.New(cfg)
	return s.cache.lens
}

// Lens returns the attached analytics lens, or nil when analytics are off.
func (s *Store) Lens() *cachelens.Lens { return s.cache.lens }

// CacheStats reports page-cache behavior since Open.
func (s *Store) CacheStats() Stats { return s.cache.stats() }

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
