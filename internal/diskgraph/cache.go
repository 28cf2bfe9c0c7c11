package diskgraph

import (
	"io"
	"sync"
	"time"

	"flos/internal/obs/cachelens"
)

// pageCache is an LRU cache of fixed-size file pages under a byte budget —
// the module's stand-in for the buffer management a graph database performs.
// It is safe for concurrent readers: the page space is striped across
// independently locked shards (page index mod shard count), each shard runs
// its own LRU under its own mutex, and concurrent faults on the same cold
// page are deduplicated so one disk read serves every waiter.
//
// A shard owns a fixed number of page frames (a page struct and its
// buffer). A fault that finds the shard full evicts the LRU page and reads
// into that page's frame, so steady-state faults allocate nothing. That is
// safe because no reader holds a page buffer outside the shard lock: copyAt
// copies the requested bytes into the caller's buffer while it holds the
// lock. Resident plus in-flight buffers stay within the budget, plus one
// per concurrent fault that found every frame of its shard mid-load.
//
// The shard count adapts to the budget (one shard per resident page up to
// maxCacheShards), which keeps the byte budget meaningful for the tiny
// caches the eviction tests use while giving large caches enough stripes
// that GOMAXPROCS readers rarely contend.
type pageCache struct {
	src      io.ReaderAt
	pageSize int64
	fileSize int64
	shards   []cacheShard

	// lens, when non-nil, samples page lookups for the cache-analytics
	// plane (MRC, working-set windows): every lookup reaches it once,
	// outside the shard lock. Nil-safe.
	lens *cachelens.Lens
}

// maxCacheShards bounds the stripe count; 64 comfortably exceeds the core
// counts this serves while keeping per-shard budgets coarse.
const maxCacheShards = 64

type cacheShard struct {
	mu sync.Mutex
	// loaded is broadcast whenever a fault finishes, for the readers
	// waiting on a page another reader is loading.
	loaded sync.Cond

	maxFrames int // page frames the budget allows this shard
	frames    int // frames it owns: resident pages plus in-flight loads

	// pages holds resident pages and pages being loaded; only resident
	// ones are on the LRU list.
	pages    map[int64]*page
	head     *page // most recently used
	tail     *page // least recently used
	resident int
	bytes    int64 // resident bytes

	hits      int64
	misses    int64
	dedups    int64
	evictions int64
}

// page is one frame. Its fields are guarded by the shard lock, except that
// the reader loading it owns data until it clears loading.
type page struct {
	idx        int64
	data       []byte // page content; capacity is always the page size
	prev, next *page
	loading    bool // being read from disk: in pages, not on the LRU list
}

func newPageCache(src io.ReaderAt, pageSize, budget, fileSize int64) *pageCache {
	if budget < pageSize {
		budget = pageSize // at least one resident page
	}
	n := budget / pageSize
	if n > maxCacheShards {
		n = maxCacheShards
	}
	c := &pageCache{
		src:      src,
		pageSize: pageSize,
		fileSize: fileSize,
		shards:   make([]cacheShard, n),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.loaded.L = &sh.mu
		sh.maxFrames = int(budget / n / pageSize)
		sh.pages = make(map[int64]*page)
	}
	return c
}

// copyAt copies the bytes of page idx from inPage on into dst and returns
// how many it copied (fewer than len(dst) when dst runs past the page),
// loading the page (and evicting within its shard) on a miss. onFault, when
// non-nil, is called with the stall duration of every cold-path lookup — a
// disk read on a miss, or the wait on another reader's in-flight load; hits
// never invoke it, so the hot path stays observer-free.
func (c *pageCache) copyAt(dst []byte, idx, inPage int64, onFault func(time.Duration)) (int, error) {
	sh := &c.shards[idx%int64(len(c.shards))]
	sh.mu.Lock()
	p := sh.pages[idx]
	switch {
	case p == nil:
		return c.fault(sh, dst, idx, inPage, onFault)
	case p.loading:
		return c.await(sh, dst, idx, inPage, onFault)
	}
	sh.hits++
	sh.touch(p)
	n, err := p.copyOut(dst, inPage)
	sh.mu.Unlock()
	c.lens.RecordGet(uint64(idx))
	return n, err
}

// fault reads page idx from the file into a frame and copies from it.
// Called with sh.mu held and idx absent from sh.pages; returns unlocked.
func (c *pageCache) fault(sh *cacheShard, dst []byte, idx, inPage int64, onFault func(time.Duration)) (int, error) {
	sh.misses++
	p := sh.takeFrame(c.pageSize)
	p.idx, p.loading = idx, true
	sh.pages[idx] = p
	sh.mu.Unlock()

	c.lens.RecordGet(uint64(idx))
	var start time.Time
	if onFault != nil {
		start = time.Now()
	}
	err := c.load(p) // disk I/O outside every lock
	if onFault != nil {
		onFault(time.Since(start))
	}

	var n int
	sh.mu.Lock()
	p.loading = false
	if err != nil {
		delete(sh.pages, idx)
		sh.frames--
	} else {
		sh.insert(p)
		n, err = p.copyOut(dst, inPage)
	}
	sh.loaded.Broadcast()
	sh.mu.Unlock()
	return n, err
}

// await waits for the reader that is loading page idx and copies from the
// page it inserted. Called with sh.mu held; returns unlocked. The page can
// already be gone when this reader gets the lock back — evicted by a later
// fault, or never inserted because its load failed — and then it faults the
// page in itself, as a lookup of its own.
func (c *pageCache) await(sh *cacheShard, dst []byte, idx, inPage int64, onFault func(time.Duration)) (int, error) {
	sh.dedups++
	var start time.Time
	if onFault != nil {
		start = time.Now()
	}
	p := sh.pages[idx]
	for p != nil && p.loading {
		sh.loaded.Wait()
		p = sh.pages[idx]
	}
	var n int
	var err error
	if p != nil {
		n, err = p.copyOut(dst, inPage)
	}
	sh.mu.Unlock()
	c.lens.RecordGet(uint64(idx))
	if onFault != nil {
		onFault(time.Since(start))
	}
	if p == nil {
		return c.copyAt(dst, idx, inPage, onFault)
	}
	return n, err
}

// load reads p's page from the underlying file into p's frame.
func (c *pageCache) load(p *page) error {
	off := p.idx * c.pageSize
	size := c.pageSize
	if off+size > c.fileSize {
		size = c.fileSize - off
	}
	if size <= 0 {
		return io.ErrUnexpectedEOF
	}
	p.data = p.data[:size]
	if n, err := c.src.ReadAt(p.data, off); err != nil && !(err == io.EOF && n == len(p.data)) {
		return err
	}
	return nil
}

func (p *page) copyOut(dst []byte, inPage int64) (int, error) {
	if inPage >= int64(len(p.data)) {
		return 0, io.ErrUnexpectedEOF
	}
	return copy(dst, p.data[inPage:]), nil
}

// readAt fills dst from the cached file content starting at off, reporting
// page-fault stalls to onFault (may be nil).
func (c *pageCache) readAt(dst []byte, off int64, onFault func(time.Duration)) error {
	for len(dst) > 0 {
		idx := off / c.pageSize
		n, err := c.copyAt(dst, idx, off-idx*c.pageSize, onFault)
		if err != nil {
			return err
		}
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// takeFrame returns the frame a fault reads into: a new one while the shard
// is under budget, otherwise the LRU page's, which it evicts. Only when
// every frame of the shard is itself mid-load does it allocate past the
// budget; insert sheds that excess. Caller holds sh.mu.
func (sh *cacheShard) takeFrame(pageSize int64) *page {
	if sh.frames < sh.maxFrames || sh.tail == nil {
		sh.frames++
		return &page{data: make([]byte, pageSize)}
	}
	p := sh.tail
	sh.evict(p)
	return p
}

// insert makes a freshly loaded page resident and, when concurrent faults
// pushed the shard past its frame budget, evicts LRU pages and drops their
// frames until it is back within it. Caller holds sh.mu.
func (sh *cacheShard) insert(p *page) {
	sh.resident++
	sh.bytes += int64(len(p.data))
	sh.pushFront(p)
	for sh.frames > sh.maxFrames && sh.tail != p {
		sh.evict(sh.tail)
		sh.frames--
	}
}

func (sh *cacheShard) touch(p *page) {
	if sh.head == p {
		return
	}
	sh.unlink(p)
	sh.pushFront(p)
}

func (sh *cacheShard) pushFront(p *page) {
	p.prev = nil
	p.next = sh.head
	if sh.head != nil {
		sh.head.prev = p
	}
	sh.head = p
	if sh.tail == nil {
		sh.tail = p
	}
}

func (sh *cacheShard) unlink(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else if sh.head == p {
		sh.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else if sh.tail == p {
		sh.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// evict removes a resident page from the shard. Its frame is the caller's.
func (sh *cacheShard) evict(p *page) {
	sh.unlink(p)
	delete(sh.pages, p.idx)
	sh.resident--
	sh.bytes -= int64(len(p.data))
	sh.evictions++
}

// Stats summarizes cache behavior.
type Stats struct {
	// Hits and Misses count page lookups; a miss is a disk read (a page
	// fault in the paper's disk-resident experiments).
	Hits, Misses int64
	// FaultsDeduped counts lookups that piggybacked on a concurrent fault
	// of the same page instead of issuing a duplicate disk read.
	FaultsDeduped int64
	// Evictions counts pages pushed out by the LRU to stay under budget.
	Evictions int64
	// ResidentBytes / ResidentPages describe current occupancy.
	ResidentBytes int64
	ResidentPages int
}

// stats sums the shards, each read under its own lock: per-shard
// consistent, not one global instant.
func (c *pageCache) stats() Stats {
	var st Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.FaultsDeduped += sh.dedups
		st.Evictions += sh.evictions
		st.ResidentBytes += sh.bytes
		st.ResidentPages += sh.resident
		sh.mu.Unlock()
	}
	return st
}
