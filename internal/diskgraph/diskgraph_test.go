package diskgraph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
	"flos/internal/obs/cachelens"
)

func writeStore(t *testing.T, g *graph.MemGraph, pageSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.flos")
	if err := Create(path, g, pageSize); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripSmall(t *testing.T) {
	g := gen.PaperExample()
	path := writeStore(t, g, 4096)
	s, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("shape: (%d,%d) vs (%d,%d)", s.NumNodes(), s.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if s.Degree(id) != g.Degree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
		wantN, wantW := g.Neighbors(id)
		gotN, gotW := s.Neighbors(id)
		if !reflect.DeepEqual(append([]graph.NodeID{}, gotN...), append([]graph.NodeID{}, wantN...)) {
			t.Fatalf("node %d neighbors: %v vs %v", v, gotN, wantN)
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("node %d weight %d: %g vs %g", v, i, gotW[i], wantW[i])
			}
		}
	}
	if s.FileSize() <= 0 {
		t.Error("zero file size")
	}
}

func TestRoundTripLargerWithTinyCache(t *testing.T) {
	g, err := gen.RMAT(3000, 12000, gen.DefaultRMAT(), 42)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 1024)
	// Budget of 4 pages: constant eviction pressure.
	s, err := Open(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for v := 0; v < g.NumNodes(); v += 37 {
		id := graph.NodeID(v)
		wantN, _ := g.Neighbors(id)
		gotN, _ := s.Neighbors(id)
		if len(gotN) != len(wantN) {
			t.Fatalf("node %d: %d neighbors vs %d", v, len(gotN), len(wantN))
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("node %d neighbor %d: %d vs %d", v, i, gotN[i], wantN[i])
			}
		}
		if s.Degree(id) != g.Degree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	st := s.CacheStats()
	if st.Misses == 0 {
		t.Error("tiny cache never missed?")
	}
	if st.ResidentBytes > 4096+1024 {
		t.Errorf("resident %d bytes over budget", st.ResidentBytes)
	}
}

func TestTopDegreesMatch(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 0)
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := g.TopDegrees(100)
	got := s.TopDegrees(100)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("top degrees differ:\n%v\n%v", got[:5], want[:5])
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.flos")
	if err := os.WriteFile(path, []byte("this is not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := os.WriteFile(path, bytes.Repeat([]byte{0}, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("zeros accepted")
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	g := gen.PaperExample()
	path := writeStore(t, g, 4096)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil {
		t.Fatal("truncated store accepted")
	}
}

func TestOpenRejectsOldFormat(t *testing.T) {
	path := writeStore(t, gen.PaperExample(), 4096)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{"FLOSDSK1", "FLOSDSK2"} {
		copy(data, old)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(path, 0)
		if err == nil || !strings.Contains(err.Error(), old+" store") || !strings.Contains(err.Error(), "rebuild the store") {
			t.Errorf("%s store: got %v, want the rebuild hint", old, err)
		}
	}
}

// TestRowsStraddlePages round-trips a graph whose row records cross page
// boundaries, at two page sizes and through a cache of two pages, including
// a zero-degree node in the middle and the last node (whose row ends the
// file).
func TestRowsStraddlePages(t *testing.T) {
	const n, isolated = 300, 250
	b := graph.NewBuilder(n)
	for v := 1; v <= 200; v++ { // node 0's row is 2,400 bytes
		if err := b.AddEdge(0, graph.NodeID(v), float64(v)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	for v := 201; v < n; v++ {
		if v == isolated {
			continue
		}
		if err := b.AddEdge(n-1, graph.NodeID(v-200), float64(v)/7); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, pageSize := range []int{512, 4096} {
		s, err := Open(writeStore(t, g, pageSize), int64(2*pageSize))
		if err != nil {
			t.Fatal(err)
		}
		straddling := 0
		for v := 0; v < n; v++ {
			id := graph.NodeID(v)
			wantN, wantW := g.Neighbors(id)
			gotN, gotW := s.Neighbors(id)
			if len(gotN) != len(wantN) {
				t.Fatalf("page %d node %d: %d neighbors, want %d", pageSize, v, len(gotN), len(wantN))
			}
			for i := range wantN {
				if gotN[i] != wantN[i] || gotW[i] != wantW[i] {
					t.Fatalf("page %d node %d entry %d: (%d,%g), want (%d,%g)",
						pageSize, v, i, gotN[i], gotW[i], wantN[i], wantW[i])
				}
			}
			lo := s.l.rowsOff + g.Offsets()[v]*rowEntrySz
			hi := s.l.rowsOff + g.Offsets()[v+1]*rowEntrySz
			if hi > lo && lo/int64(pageSize) != (hi-1)/int64(pageSize) {
				straddling++
			}
			if v == n-1 && hi != s.FileSize() {
				t.Fatalf("page %d: last row ends at %d, file at %d", pageSize, hi, s.FileSize())
			}
		}
		if nb, _ := s.Neighbors(isolated); len(nb) != 0 {
			t.Fatalf("page %d: isolated node has %d neighbors", pageSize, len(nb))
		}
		if straddling == 0 {
			t.Fatalf("page %d: no row crosses a page boundary; the test graph no longer tests that", pageSize)
		}
		s.Close()
	}
}

// TestCorruptOffsets writes one bad entry into a written store's offsets
// section and wants Open to refuse the file with diskgraph's own complaint
// naming the first node whose row the offsets no longer describe, never a
// store that panics, or reads another section's bytes, on a later visit.
func TestCorruptOffsets(t *testing.T) {
	g := gen.PaperExample()
	path := writeStore(t, g, 4096)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := s.l
	s.Close()
	n, m2 := l.n, l.m2
	if end := g.Offsets()[4]; end >= m2 {
		t.Fatalf("node 4 starts at %d of %d half-edges; the test needs rows after it", end, m2)
	}

	// offsets[3] is node 2's end and node 3's start.
	for _, tc := range []struct {
		entry int64
		val   uint64
		node  int64
	}{
		{0, 1, 0},                  // the first row does not start at 0
		{n, uint64(m2 + 1), n - 1}, // last row ends past m2
		{n, uint64(m2 - 1), n - 1}, // last row ends short of m2
		{3, uint64(m2 + 5), 2},     // hi > m2
		{3, ^uint64(0) - 2, 2},     // hi < 0 as int64
		{3, uint64(1) << 62, 2},    // hi far past the file
		{3, ^uint64(0) - 100, 2},   // hi < lo
		{3, uint64(m2), 3},         // node 2 ends at m2, so node 3 starts past its end
	} {
		data := append([]byte(nil), clean...)
		putU64(data[l.offsetsOff+tc.entry*8:], tc.val)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, 0)
		if err == nil {
			s.Close()
			t.Errorf("offsets[%d]=%#x: Open accepted the store", tc.entry, tc.val)
			continue
		}
		if want := fmt.Sprintf("corrupt offsets: node %d ", tc.node); !strings.Contains(err.Error(), want) {
			t.Errorf("offsets[%d]=%#x: Open returned %q, want %q", tc.entry, tc.val, err, want)
		}
	}
}

// TestNodeTableTouchesNoPage: degrees and offsets are read into memory at
// Open, so a degree probe never reaches the page cache or the fault
// observer, and a visit costs exactly the page lookups its row spans.
func TestNodeTableTouchesNoPage(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 512
	s, err := Open(writeStore(t, g, pageSize), pageSize) // a one-page budget
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.NewReader()
	faults := 0
	r.SetFaultObserver(func(time.Duration) { faults++ })
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if s.Degree(id) != g.Degree(id) || r.Degree(id) != g.Degree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	if st := s.CacheStats(); st != (Stats{}) {
		t.Fatalf("degree probes reached the page cache: %+v", st)
	}
	if faults != 0 {
		t.Fatalf("degree probes invoked the fault observer %d times", faults)
	}

	lookups := func() int64 {
		st := s.CacheStats()
		return st.Hits + st.Misses
	}
	off := g.Offsets()
	for v := 0; v < g.NumNodes(); v++ {
		lo := s.l.rowsOff + off[v]*rowEntrySz
		hi := s.l.rowsOff + off[v+1]*rowEntrySz
		var want int64
		if hi > lo {
			want = (hi-1)/pageSize - lo/pageSize + 1
		}
		before := lookups()
		r.Neighbors(graph.NodeID(v))
		if got := lookups() - before; got != want {
			t.Fatalf("node %d: row [%d,%d) cost %d page lookups, want %d", v, lo, hi, got, want)
		}
	}
}

// TestFLoSOnDiskStore is the Section 6.4 scenario: the full FLoS stack
// answering exact queries against the disk store through the graph.Graph
// interface, with results identical to the in-memory run.
func TestFLoSOnDiskStore(t *testing.T) {
	g, err := gen.RMAT(5000, 25000, gen.DefaultRMAT(), 3)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 8192)
	s, err := Open(path, 64<<10) // 64 KiB: heavy eviction, real paging
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	lc := graph.LargestComponentNodes(g)
	for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
		for i := 0; i < 3; i++ {
			q := lc[(i*997)%len(lc)]
			opt := core.DefaultOptions(kind, 10)
			memRes, err := core.TopK(g, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			diskRes, err := core.TopK(s, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !measure.SameSet(measure.Nodes(memRes.TopK), measure.Nodes(diskRes.TopK)) {
				t.Fatalf("%v q=%d: disk %v != mem %v", kind, q,
					measure.Nodes(diskRes.TopK), measure.Nodes(memRes.TopK))
			}
			if diskRes.Visited != memRes.Visited {
				t.Errorf("%v q=%d: visited %d (disk) vs %d (mem)", kind, q, diskRes.Visited, memRes.Visited)
			}
		}
	}
	st := s.CacheStats()
	t.Logf("cache: %d hits, %d misses, %d resident bytes", st.Hits, st.Misses, st.ResidentBytes)
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct cache exercise: 10-byte pages over a 100-byte reader, 30-byte
	// budget → at most 3 resident pages.
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	c := newPageCache(bytes.NewReader(data), 10, 30, 100)
	for i := 0; i < 10; i++ {
		var b [10]byte
		if err := c.readAt(b[:], int64(i)*10, nil); err != nil {
			t.Fatal(err)
		}
		if b[0] != byte(i*10) {
			t.Fatalf("page %d content wrong", i)
		}
	}
	st := c.stats()
	if st.ResidentPages > 3 {
		t.Fatalf("%d resident pages with 3-page budget", st.ResidentPages)
	}
	if st.Misses != 10 {
		t.Fatalf("misses = %d, want 10 cold loads", st.Misses)
	}
	// Re-read last three pages: all hits.
	for i := 7; i < 10; i++ {
		var b [10]byte
		if err := c.readAt(b[:], int64(i)*10, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.stats().Hits; got != 3 {
		t.Fatalf("hits = %d, want 3", got)
	}
}

func TestCacheSpanningRead(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	c := newPageCache(bytes.NewReader(data), 16, 64, 64)
	got := make([]byte, 40)
	if err := c.readAt(got, 12, nil); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(12+i) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], 12+i)
		}
	}
	if err := c.readAt(make([]byte, 8), 60, nil); err == nil {
		t.Fatal("read past EOF accepted")
	}
}

// TestFaultObserver verifies the Reader-level page-fault hook: cold reads
// invoke it with a positive stall duration, warm reads never invoke it, and
// observer counts line up with the cache's miss counters.
func TestFaultObserver(t *testing.T) {
	g := gen.PaperExample()
	path := writeStore(t, g, 512)
	s, err := Open(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r := s.NewReader()
	var faults int
	var total time.Duration
	r.SetFaultObserver(func(d time.Duration) {
		faults++
		total += d
		if d < 0 {
			t.Errorf("negative fault duration %v", d)
		}
	})
	for v := 0; v < g.NumNodes(); v++ {
		r.Neighbors(graph.NodeID(v))
		r.Degree(graph.NodeID(v))
	}
	if faults == 0 {
		t.Fatal("cold scan reported zero page faults")
	}
	st := s.CacheStats()
	if int64(faults) != st.Misses {
		t.Fatalf("observer saw %d faults, cache counted %d misses", faults, st.Misses)
	}

	// Warm re-scan: everything resident, the observer must stay silent.
	before := faults
	for v := 0; v < g.NumNodes(); v++ {
		r.Neighbors(graph.NodeID(v))
		r.Degree(graph.NodeID(v))
	}
	if faults != before {
		t.Fatalf("warm scan invoked the fault observer %d times", faults-before)
	}

	// Clearing the observer keeps reads working.
	r.SetFaultObserver(nil)
	r.Neighbors(0)
}

// TestEvictionCountersAndHWM: a cache too small for its file reports LRU
// evictions, one per fault beyond the pages still resident, and the
// resident pages' high-water mark, read after every access, is the budget.
func TestEvictionCountersAndHWM(t *testing.T) {
	data := make([]byte, 100)
	c := newPageCache(bytes.NewReader(data), 10, 30, 100)
	hwm := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 10; i++ {
			var b [10]byte
			if err := c.readAt(b[:], int64(i)*10, nil); err != nil {
				t.Fatal(err)
			}
			hwm = max(hwm, c.stats().ResidentPages)
		}
	}
	if hwm != 3 {
		t.Fatalf("resident pages peaked at %d; want the 3-page budget", hwm)
	}
	st := c.stats()
	if st.Evictions == 0 {
		t.Fatal("10 pages through a 3-page budget evicted nothing")
	}
	if st.Evictions != st.Misses-int64(st.ResidentPages) {
		t.Fatalf("evictions %d != misses %d - resident %d", st.Evictions, st.Misses, st.ResidentPages)
	}
	if st.ResidentPages != 3 || st.ResidentBytes != 30 {
		t.Fatalf("%d pages, %d bytes resident; want the 3-page budget full", st.ResidentPages, st.ResidentBytes)
	}
}

// ownedBytes is what the cache holds in page buffers at one instant. It
// holds every shard lock at once, because faults move between shards faster
// than it could visit them.
func (c *pageCache) ownedBytes() int64 {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	var frames int64
	for i := range c.shards {
		frames += int64(c.shards[i].frames)
		c.shards[i].mu.Unlock()
	}
	return frames * c.pageSize
}

// sizeReader is an io.ReaderAt that records the largest read it served.
type sizeReader struct {
	src     io.ReaderAt
	reads   int
	largest int
}

func (r *sizeReader) ReadAt(p []byte, off int64) (int, error) {
	r.reads++
	r.largest = max(r.largest, len(p))
	return r.src.ReadAt(p, off)
}

// TestMissReadsOneOSPage: on a store laid out in pages of two OS pages, a
// cache miss reads one OS page at most, however many of the store's rows
// straddle a frame edge, and the rows it serves are the graph's.
func TestMissReadsOneOSPage(t *testing.T) {
	g, err := gen.RMAT(3000, 12000, gen.DefaultRMAT(), 42)
	if err != nil {
		t.Fatal(err)
	}
	pageSize := 2 * os.Getpagesize()
	s, err := Open(writeStore(t, g, pageSize), 4*int64(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := &sizeReader{src: s.cache.src}
	s.cache.src = src
	for v := 0; v < g.NumNodes(); v++ {
		u := graph.NodeID(v * 997 % g.NumNodes())
		gotN, gotW := s.Neighbors(u)
		wantN, wantW := g.Neighbors(u)
		if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("node %d: row %v %v, want %v %v", u, gotN, gotW, wantN, wantW)
		}
	}
	if st := s.CacheStats(); src.reads == 0 || int64(src.reads) != st.Misses {
		t.Fatalf("%d reads for %d misses; want one read per miss, and some", src.reads, st.Misses)
	}
	if page := os.Getpagesize(); src.largest > page {
		t.Fatalf("a miss read %d bytes; an OS page is %d", src.largest, page)
	}
}

// TestFaultPathAllocs: once the cache is full, a fault reads into the frame
// of the page it evicts, so a scan that faults thousands of times allocates
// no page buffers and the cache never owns more than its budget.
func TestFaultPathAllocs(t *testing.T) {
	g, err := gen.RMAT(3000, 12000, gen.DefaultRMAT(), 42)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize, budget = 8192, 4 * 8192
	s, err := Open(writeStore(t, g, pageSize), budget)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.FileSize() < 8*budget {
		t.Fatalf("file of %d bytes is too small for a %d-byte cache to keep faulting", s.FileSize(), budget)
	}
	r := s.NewReader()
	scan := func() {
		for v := 0; v < g.NumNodes(); v++ {
			// Stride across the file so consecutive reads land on different pages.
			r.Neighbors(graph.NodeID(v * 997 % g.NumNodes()))
		}
	}
	scan() // fills the frames and grows the reader's scratch buffers

	var before, after runtime.MemStats
	faults := s.CacheStats().Misses
	runtime.ReadMemStats(&before)
	scan()
	runtime.ReadMemStats(&after)
	faults = s.CacheStats().Misses - faults
	if faults < 1000 {
		t.Fatalf("only %d faults in the measured scan", faults)
	}
	if perFault := float64(after.TotalAlloc-before.TotalAlloc) / float64(faults); perFault >= 256 {
		t.Errorf("%.0f bytes allocated per fault over %d faults; a page buffer is %d", perFault, faults, pageSize)
	}
	if owned := s.cache.ownedBytes(); owned > budget {
		t.Errorf("cache owns %d bytes of page buffers, budget %d", owned, budget)
	}
	if st := s.CacheStats(); st.ResidentBytes > budget {
		t.Errorf("%d resident bytes, budget %d", st.ResidentBytes, budget)
	}
}

// gatedReader is an io.ReaderAt over data that counts its reads and fails
// them while fail is set. When gate is set, each read reports itself on
// entered and then waits for gate to close.
type gatedReader struct {
	data    []byte
	gate    chan struct{}
	entered chan struct{}
	reads   atomic.Int32
	fail    atomic.Bool
}

var errInjected = errors.New("injected read error")

func (r *gatedReader) ReadAt(p []byte, off int64) (int, error) {
	r.reads.Add(1)
	if r.gate != nil {
		r.entered <- struct{}{}
		<-r.gate
	}
	if r.fail.Load() {
		return 0, errInjected
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// waitForLockWaiter returns once some goroutine is parked on a mutex inside
// copyAt, read off the goroutine dump.
func waitForLockWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "(*pageCache).copyAt") {
				return
			}
		}
		runtime.Gosched()
	}
}

// TestColdPageReadOnce: two concurrent lookups of one cold page make one
// disk read. The second waits on the shard lock while the first reads, then
// hits; the fault observer sees only the first reader's load.
func TestColdPageReadOnce(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	// entered has room for a second read, so a cache that read the page
	// twice fails the count below instead of hanging.
	src := &gatedReader{data: data, gate: make(chan struct{}), entered: make(chan struct{}, 2)}
	c := newPageCache(src, 10, 30, 100)

	var stalls atomic.Int32
	observe := func(time.Duration) { stalls.Add(1) }
	var wg sync.WaitGroup
	var got [2][4]byte
	var errs [2]error
	lookup := func(i int) {
		defer wg.Done()
		_, errs[i] = c.copyAt(got[i][:], 3, 2, observe)
	}
	wg.Add(2)
	go lookup(0)
	<-src.entered // the first lookup holds the lock, mid-read
	go lookup(1)
	waitForLockWaiter(t)
	close(src.gate)
	wg.Wait()

	for i := range got {
		if errs[i] != nil || got[i] != [4]byte{32, 33, 34, 35} {
			t.Fatalf("lookup %d read %v (err %v), want bytes 32..35", i, got[i], errs[i])
		}
	}
	st := c.stats()
	if n := src.reads.Load(); n != 1 || st.Misses != 1 || st.Hits != 1 || stalls.Load() != 1 {
		t.Fatalf("%d reads, %d misses, %d hits, %d observed stalls; want 1 each", n, st.Misses, st.Hits, stalls.Load())
	}
}

// TestFailedLoadLeavesNothing: a load whose read fails returns the read's
// error and leaves neither the page nor its frame in the cache, whether the
// frame was new or recycled from an evicted page; the next lookup of the
// page reads it again.
func TestFailedLoadLeavesNothing(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	src := &gatedReader{data: data}
	c := newPageCache(src, 10, 10, 100) // one shard of one frame
	var b [4]byte
	for _, resident := range []int64{-1, 5} { // none resident (a new frame), then page 5 (its frame recycled)
		if resident >= 0 {
			if _, err := c.copyAt(b[:], resident, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		src.fail.Store(true)
		if _, err := c.copyAt(b[:], 3, 2, nil); !errors.Is(err, errInjected) {
			t.Fatalf("failed load returned %v, want the read's error", err)
		}
		if st := c.stats(); st.ResidentPages != 0 || st.ResidentBytes != 0 || c.ownedBytes() != 0 {
			t.Fatalf("after a failed load: %+v, %d bytes owned; want an empty cache", st, c.ownedBytes())
		}
		src.fail.Store(false)
		reads := src.reads.Load()
		if n, err := c.copyAt(b[:], 3, 2, nil); err != nil || n != 4 || b != [4]byte{32, 33, 34, 35} {
			t.Fatalf("retry read %v (n=%d, err=%v), want bytes 32..35", b, n, err)
		}
		if src.reads.Load() != reads+1 {
			t.Fatal("the lookup after a failed load did not read the page")
		}
	}
}

// TestStoreLensIntegration attaches an analytics lens to a store with a
// deliberately undersized cache and checks the exported snapshot: geometry
// auto-fill (capacity from budget), access accounting that matches the
// cache's own counters, and a full miss-ratio curve.
func TestStoreLensIntegration(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 512)
	for _, tc := range []struct {
		cacheBytes int64
		sampleRate int // 1: the lens samples every lookup; 4: about one in four
		pages      int
	}{
		{8 << 10, 1, 16},
		{32 << 10, 4, 64},
	} {
		s, err := Open(path, tc.cacheBytes) // far smaller than the file: forces eviction
		if err != nil {
			t.Fatal(err)
		}
		lens := s.AttachLens(cachelens.Config{SampleRate: tc.sampleRate, Seed: 3})
		if s.Lens() != lens {
			t.Fatal("Lens() does not return the attached lens")
		}
		for pass := 0; pass < 2; pass++ {
			for v := 0; v < s.NumNodes(); v += 3 {
				s.Neighbors(graph.NodeID(v))
				s.Degree(graph.NodeID(v))
			}
		}

		st := s.CacheStats()
		snap := lens.Snapshot()
		if snap.SampleRate != tc.sampleRate {
			t.Fatalf("effective sample rate %d, want %d", snap.SampleRate, tc.sampleRate)
		}
		lookups := st.Hits + st.Misses
		if got := snap.SampledAccesses; tc.sampleRate == 1 && got != lookups || got <= 0 || got > lookups {
			t.Fatalf("rate %d: lens sampled %d accesses of the cache's %d lookups", tc.sampleRate, got, lookups)
		}
		if st.Evictions == 0 {
			t.Fatal("undersized cache evicted nothing")
		}
		if snap.Capacity != tc.pages {
			t.Fatalf("auto-filled capacity = %d, want %d pages", snap.Capacity, tc.pages)
		}
		if len(snap.Curve) != len(cachelens.DefaultScales) {
			t.Fatalf("curve has %d points", len(snap.Curve))
		}
		s.Close()
	}
}

// TestAttachLensMarksResidentPages attaches the lens to a cache that
// already holds pages: the lens sees every lookup of those resident pages
// made from then on, and none from before.
func TestAttachLensMarksResidentPages(t *testing.T) {
	g, err := gen.RMAT(500, 2000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(writeStore(t, g, 512), 1<<20) // the whole file fits
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	read := func() {
		for v := 0; v < s.NumNodes(); v++ {
			s.Neighbors(graph.NodeID(v))
		}
	}
	read()
	read()
	before := s.CacheStats()
	lens := s.AttachLens(cachelens.Config{SampleRate: 1})
	read()
	after := s.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("third pass faulted: %d -> %d misses", before.Misses, after.Misses)
	}
	if want, got := after.Hits-before.Hits, lens.Snapshot().SampledAccesses; got != want || got == 0 {
		t.Fatalf("lens sampled %d accesses; the cache served %d hits since it was attached", got, want)
	}
}
