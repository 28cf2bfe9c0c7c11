package diskgraph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	// A 4 KiB budget pins a few rows; the rest come from the file.
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
		t.Error("a 4 KiB budget served every row from memory")
	}
	if st.ResidentBytes > 4096 {
		t.Errorf("pinned %d bytes, over the budget", st.ResidentBytes)
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
// boundaries, at two page sizes and with a budget of two pages, including
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
// Open, so a degree probe reads no row and never reaches the fault
// observer, and a visit to a non-empty row is exactly one row lookup.
func TestNodeTableTouchesNoPage(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(writeStore(t, g, 512), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := &countingReader{src: s.src}
	s.src = src
	r := s.NewReader()
	faults := 0
	r.SetFaultObserver(func(time.Duration) { faults++ })
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if s.Degree(id) != g.Degree(id) || r.Degree(id) != g.Degree(id) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	if st := s.CacheStats(); st != (Stats{}) || len(src.reads) != 0 || faults != 0 {
		t.Fatalf("degree probes read rows: %+v, %d file reads, %d observed", st, len(src.reads), faults)
	}

	off := g.Offsets()
	for v := 0; v < g.NumNodes(); v++ {
		var want int64
		if off[v+1] > off[v] {
			want = 1
		}
		before := s.CacheStats()
		r.Neighbors(graph.NodeID(v))
		after := s.CacheStats()
		if got := after.Hits + after.Misses - before.Hits - before.Misses; got != want {
			t.Fatalf("node %d: %d half-edges cost %d row lookups, want %d", v, off[v+1]-off[v], got, want)
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
	s, err := Open(path, 64<<10) // 64 KiB: hub rows pinned, the rest read from the file
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
	t.Logf("rows: %d pinned hits, %d file reads, %d pinned bytes", st.Hits, st.Misses, st.ResidentBytes)
}

// TestFaultObserver verifies the Reader-level fault hook: file reads invoke
// it with a non-negative stall duration, reads of filled pinned rows never
// invoke it, and observer counts line up with the store's file reads.
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
		t.Fatal("cold scan reported no file reads")
	}
	st := s.CacheStats()
	if int64(faults) != st.Misses {
		t.Fatalf("observer saw %d faults, the store counted %d file reads", faults, st.Misses)
	}

	// Warm re-scan: every row is pinned and filled, the observer stays silent.
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

// countingReader is an io.ReaderAt over src that records every read it
// serves and fails them while fail is set. When gate is set, the first read
// at gateOff reports itself on entered and then waits for gate to close.
type countingReader struct {
	src     io.ReaderAt
	mu      sync.Mutex
	reads   []span
	gateOff int64
	gate    chan struct{}
	entered chan struct{}
	fail    atomic.Bool
}

// span is one read: its file offset and length.
type span struct{ off, n int64 }

var errInjected = errors.New("injected read error")

func (r *countingReader) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.reads = append(r.reads, span{off, int64(len(p))})
	gate := r.gate
	if off != r.gateOff {
		gate = nil
	} else {
		r.gate = nil
	}
	r.mu.Unlock()
	if gate != nil {
		r.entered <- struct{}{}
		<-gate
	}
	if r.fail.Load() {
		return 0, errInjected
	}
	return r.src.ReadAt(p, off)
}

func (r *countingReader) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.reads)
}

// sameRow fails t unless v's row from the store is g's.
func sameRow(t *testing.T, g *graph.MemGraph, v graph.NodeID, gotN []graph.NodeID, gotW []float64) {
	t.Helper()
	if wantN, wantW := g.Neighbors(v); !slices.Equal(gotN, wantN) || !slices.Equal(gotW, wantW) {
		t.Fatalf("node %d: row %v %v, want %v %v", v, gotN, gotW, wantN, wantW)
	}
}

// TestUnpinnedRowIsOneExactRead: with nothing pinned, a visit is one ReadAt
// of exactly the row's bytes, and an empty row reads nothing.
func TestUnpinnedRowIsOneExactRead(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(writeStore(t, g, 512), rowEntrySz-1) // no row fits
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.pin.state) != 0 {
		t.Fatalf("an %d-byte budget pinned %d rows", rowEntrySz-1, len(s.pin.state))
	}
	src := &countingReader{src: s.src}
	s.src = src
	r := s.NewReader()
	off := g.Offsets()
	var rows int64
	for v := 0; v < g.NumNodes(); v++ {
		before := src.count()
		gotN, gotW := r.Neighbors(graph.NodeID(v))
		sameRow(t, g, graph.NodeID(v), gotN, gotW)
		reads := src.reads[before:]
		if cnt := off[v+1] - off[v]; cnt == 0 {
			if len(reads) != 0 {
				t.Fatalf("empty row of node %d read %v", v, reads)
			}
		} else if want := (span{s.l.rowsOff + off[v]*rowEntrySz, cnt * rowEntrySz}); len(reads) != 1 || reads[0] != want {
			t.Fatalf("node %d: reads %v, want one of %v", v, reads, want)
		} else {
			rows++
		}
	}
	if st := s.CacheStats(); st.Hits != 0 || st.Misses != rows {
		t.Fatalf("%+v, want %d misses and no hits", st, rows)
	}
}

// TestPinnedSetFollowsBudget: the pinned rows are the longest rows, ties by
// ascending ID, up to the first one that would overflow the budget; their
// bytes stay within it, filled or not; every pinned row's slot holds its
// own length; and two Opens of one file pin the same set.
func TestPinnedSetFollowsBudget(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 512)
	off := g.Offsets()
	rowLen := func(v int) int64 { return off[v+1] - off[v] }
	// before reports whether u precedes v in pinning order.
	before := func(u, v int) bool { return rowLen(u) > rowLen(v) || rowLen(u) == rowLen(v) && u < v }
	for _, budget := range []int64{600, 4 << 10, 64 << 10, 1 << 20} {
		s, err := Open(path, budget)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Open(path, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.pin.bits, again.pin.bits) || !reflect.DeepEqual(s.pin.start, again.pin.start) {
			t.Fatalf("budget %d: two Opens pinned different rows", budget)
		}
		again.Close()

		var pinnedBytes int64
		lastPinned, firstOut := -1, -1 // the last pinned row and the first eligible one left out, in pinning order
		for v := 0; v < g.NumNodes(); v++ {
			i := s.pin.slot(graph.NodeID(v))
			if i < 0 {
				if l := rowLen(v); l > 0 && l*rowEntrySz <= budget && (firstOut < 0 || before(v, firstOut)) {
					firstOut = v
				}
				continue
			}
			if nb, _ := s.pin.row(i); int64(len(nb)) != rowLen(v) || rowLen(v) == 0 {
				t.Fatalf("budget %d: node %d has %d half-edges, its slot %d", budget, v, rowLen(v), len(nb))
			}
			pinnedBytes += rowLen(v) * rowEntrySz
			if lastPinned < 0 || before(lastPinned, v) {
				lastPinned = v
			}
		}
		if pinnedBytes > budget || lastPinned < 0 {
			t.Fatalf("budget %d: %d rows pin %d bytes", budget, len(s.pin.state), pinnedBytes)
		}
		if firstOut >= 0 && (before(firstOut, lastPinned) || pinnedBytes+rowLen(firstOut)*rowEntrySz <= budget) {
			t.Fatalf("budget %d: node %d (%d half-edges) left out while node %d (%d) is pinned with %d bytes",
				budget, firstOut, rowLen(firstOut), lastPinned, rowLen(lastPinned), pinnedBytes)
		}
		for v := 0; v < g.NumNodes(); v++ {
			s.Neighbors(graph.NodeID(v))
		}
		if st := s.CacheStats(); st.ResidentBytes != pinnedBytes || st.PinnedRows != len(s.pin.state) {
			t.Fatalf("budget %d: filled %+v, chose %d rows of %d bytes", budget, st, len(s.pin.state), pinnedBytes)
		}
		s.Close()
	}
}

// pinnedStore opens g's store with a budget that pins every row and swaps
// in a countingReader.
func pinnedStore(t *testing.T, g *graph.MemGraph) (*Store, *countingReader) {
	t.Helper()
	s, err := Open(writeStore(t, g, 512), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	src := &countingReader{src: s.src, gateOff: -1}
	s.src = src
	return s, src
}

// TestPinnedRowFirstFill: a reader that finds a pinned row mid-fill reads
// the file itself instead of waiting, and once the fill is published no
// reader reads that row from the file again.
func TestPinnedRowFirstFill(t *testing.T) {
	g, err := gen.RMAT(500, 2000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, src := pinnedStore(t, g)
	hub := g.TopDegrees(1)[0].Node
	src.gateOff = s.l.rowsOff + g.Offsets()[hub]*rowEntrySz
	src.gate, src.entered = make(chan struct{}), make(chan struct{}, 1)
	gate := src.gate

	a, b := s.NewReader(), s.NewReader()
	var aN []graph.NodeID
	var aW []float64
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		aN, aW = a.Neighbors(hub)
	}()
	<-src.entered // a owns the slot, mid-read
	if st := s.pin.state[s.pin.slot(hub)].Load(); st != slotFilling {
		t.Fatalf("slot state %d while its first read runs, want filling", st)
	}
	read := make(chan struct{})
	var bN []graph.NodeID
	var bW []float64
	go func() {
		defer close(read)
		bN, bW = b.Neighbors(hub)
	}()
	select {
	case <-read:
	case <-time.After(10 * time.Second):
		t.Fatal("a reader waited on a slot being filled")
	}
	sameRow(t, g, hub, bN, bW)
	close(gate)
	<-filled
	sameRow(t, g, hub, aN, aW)
	if n := src.count(); n != 2 {
		t.Fatalf("%d file reads for a fill and one concurrent read, want 2", n)
	}
	for range 3 {
		for _, r := range []*Reader{a, b, s.NewReader()} {
			gotN, gotW := r.Neighbors(hub)
			sameRow(t, g, hub, gotN, gotW)
		}
	}
	if n, st := src.count(), s.CacheStats(); n != 2 || st != (Stats{Hits: 9, Misses: 2, ResidentBytes: int64(len(aN)) * rowEntrySz, PinnedRows: 1}) {
		t.Fatalf("after the fill: %d file reads, %+v", n, st)
	}
}

// TestPinnedRowConcurrentFirstReads: readers racing over cold pinned rows
// fill each slot exactly once, read each row from the file at most once per
// reader, and read nothing from the file once every slot is ready.
func TestPinnedRowConcurrentFirstReads(t *testing.T) {
	g, err := gen.RMAT(1000, 4000, gen.DefaultRMAT(), 11)
	if err != nil {
		t.Fatal(err)
	}
	s, src := pinnedStore(t, g)
	const readers = 4
	scan := func() {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := s.NewReader()
				<-start
				for i := range g.NumNodes() {
					v := graph.NodeID((i + w) % g.NumNodes()) // neighbouring readers collide on neighbouring rows
					gotN, gotW := r.Neighbors(v)
					if wantN, wantW := g.Neighbors(v); !slices.Equal(gotN, wantN) || !slices.Equal(gotW, wantW) {
						t.Errorf("reader %d node %d: wrong row", w, v)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	scan()
	if st := s.CacheStats(); st.PinnedRows != len(s.pin.state) || int(st.Misses) > readers*len(s.pin.state) {
		t.Fatalf("%+v: %d slots, want each filled once and read at most once per reader", st, len(s.pin.state))
	}
	reads := src.count()
	scan()
	if n := src.count(); n != reads {
		t.Fatalf("a scan over ready slots read the file %d times", n-reads)
	}
}

// TestFailedFillLeavesSlotEmpty: a pinned row whose first read fails fails
// its caller with graph.ErrStorage and leaves the slot empty, so the next
// read tries the file again and fills it.
func TestFailedFillLeavesSlotEmpty(t *testing.T) {
	g := gen.PaperExample()
	s, src := pinnedStore(t, g)
	src.fail.Store(true)
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, graph.ErrStorage) || !errors.Is(err, errInjected) {
				t.Fatalf("failed fill panicked with %v, want ErrStorage wrapping the read's error", err)
			}
		}()
		s.Neighbors(0)
	}()
	if st := s.pin.state[s.pin.slot(0)].Load(); st != slotEmpty || s.CacheStats().PinnedRows != 0 {
		t.Fatalf("after a failed fill: slot state %d, %+v", st, s.CacheStats())
	}
	src.fail.Store(false)
	gotN, gotW := s.Neighbors(0)
	sameRow(t, g, 0, gotN, gotW)
	if n, st := src.count(), s.CacheStats(); n != 2 || st.PinnedRows != 1 || s.pin.state[s.pin.slot(0)].Load() != slotReady {
		t.Fatalf("retry: %d file reads, %+v", n, st)
	}
}

// TestWarmNeighborsAllocs: once a reader's scratch has grown and the pinned
// rows are filled, Neighbors allocates nothing, pinned or read from the
// file, with a fault observer attached or not.
func TestWarmNeighborsAllocs(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(writeStore(t, g, 512), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.NewReader()
	scan := func() {
		for v := 0; v < g.NumNodes(); v++ {
			r.Neighbors(graph.NodeID(v * 997 % g.NumNodes()))
		}
	}
	scan()
	if st := s.CacheStats(); st.PinnedRows == 0 || st.Misses <= int64(st.PinnedRows) {
		t.Fatalf("%+v: the scan needs pinned and unpinned rows", st)
	}
	var faults int
	for _, observe := range []func(time.Duration){nil, func(time.Duration) { faults++ }} {
		r.SetFaultObserver(observe)
		if a := testing.AllocsPerRun(3, scan); a != 0 {
			t.Errorf("observer %v: %.0f allocations per warm scan", observe != nil, a)
		}
	}
	if faults == 0 {
		t.Fatal("the observer saw no file reads")
	}
}

// TestStoreLensIntegration attaches an analytics lens to a store whose
// budget pins only part of the file and checks the exported snapshot:
// geometry auto-fill (capacity = pinned rows), access accounting that
// matches the store's own row counters, and a full miss-ratio curve.
func TestStoreLensIntegration(t *testing.T) {
	g, err := gen.RMAT(2000, 8000, gen.DefaultRMAT(), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 512)
	for _, tc := range []struct {
		budget     int64
		sampleRate int // 1: the lens samples every lookup; 4: about one in four
	}{
		{8 << 10, 1},
		{128 << 10, 4},
	} {
		s, err := Open(path, tc.budget) // smaller than the file's rows
		if err != nil {
			t.Fatal(err)
		}
		if slots := len(s.pin.state); slots < 16*tc.sampleRate {
			t.Fatalf("budget %d pins %d rows; the lens refines its rate below %d rows", tc.budget, slots, 16*tc.sampleRate)
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
			t.Fatalf("rate %d: lens sampled %d accesses of the store's %d lookups", tc.sampleRate, got, lookups)
		}
		if st.Hits == 0 || st.Misses <= int64(st.PinnedRows) {
			t.Fatalf("%+v: want pinned hits and file reads of unpinned rows", st)
		}
		if snap.Capacity != len(s.pin.state) {
			t.Fatalf("auto-filled capacity = %d, want %d pinned rows", snap.Capacity, len(s.pin.state))
		}
		if len(snap.Curve) != len(cachelens.DefaultScales) {
			t.Fatalf("curve has %d points", len(snap.Curve))
		}
		s.Close()
	}
}
