package diskgraph

import (
	"io"
	"sync"
	"time"

	"flos/internal/obs/cachelens"
)

// pageCache is an LRU cache of fixed-size file pages under a byte budget —
// the module's stand-in for the buffer management a graph database performs.
// A store's cache pages are its frames (frameSize): one OS page at most.
// It is safe for concurrent readers: the page space is striped across
// independently locked shards (page index mod shard count), each shard runs
// its own LRU under its own mutex, and a miss reads its page while holding
// that mutex, so a concurrent lookup of the same page waits on the lock and
// then hits: each page is read once.
//
// A shard owns a fixed number of page frames (a page struct and its
// buffer). A miss that finds the shard full evicts the LRU page and reads
// into that page's frame, so steady-state misses allocate nothing and the
// buffers never exceed the budget. That is safe because no reader holds a
// page buffer outside the shard lock: copyAt copies the requested bytes into
// the caller's buffer while it holds the lock.
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

	maxFrames int // page frames the budget allows this shard
	frames    int // frames it owns, one per resident page

	pages    map[int64]*page
	head     *page // most recently used
	tail     *page // least recently used
	resident int
	bytes    int64 // resident bytes

	hits      int64
	misses    int64
	evictions int64
}

// page is one frame; its fields are guarded by the shard lock.
type page struct {
	idx        int64
	data       []byte // page content; capacity is always the page size
	prev, next *page
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
		sh.maxFrames = int(budget / n / pageSize)
		sh.pages = make(map[int64]*page)
	}
	return c
}

// copyAt copies the bytes of page idx from inPage on into dst and returns
// how many it copied (fewer than len(dst) when dst runs past the page),
// reading the page (and evicting within its shard) on a miss. onFault, when
// non-nil, is called after the lock is released with the stall of every
// miss, the disk read included; hits never invoke it, so the hot path stays
// observer-free. A lookup that waited on the lock for another reader's read
// of the same page is a hit.
func (c *pageCache) copyAt(dst []byte, idx, inPage int64, onFault func(time.Duration)) (n int, err error) {
	sh := &c.shards[idx%int64(len(c.shards))]
	sh.mu.Lock()
	p := sh.pages[idx]
	var start time.Time
	if p != nil {
		sh.hits++
		sh.touch(p)
	} else {
		if onFault != nil {
			start = time.Now()
		}
		p, err = c.fault(sh, idx)
	}
	if err == nil {
		n, err = p.copyOut(dst, inPage)
	}
	sh.mu.Unlock()
	c.lens.RecordGet(uint64(idx))
	if !start.IsZero() {
		onFault(time.Since(start))
	}
	return n, err
}

// fault reads page idx from the file into a frame and makes it resident. A
// failed read drops the frame, leaving no trace of the page. Caller holds
// sh.mu.
func (c *pageCache) fault(sh *cacheShard, idx int64) (*page, error) {
	sh.misses++
	p := sh.takeFrame(c.pageSize)
	p.idx = idx
	if err := c.load(p); err != nil {
		sh.frames--
		return nil, err
	}
	sh.pages[idx] = p
	sh.resident++
	sh.bytes += int64(len(p.data))
	sh.pushFront(p)
	return p, nil
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

// takeFrame returns the frame a miss reads into: a new one while the shard
// is under budget, otherwise the LRU page's, which it evicts. Caller holds
// sh.mu.
func (sh *cacheShard) takeFrame(pageSize int64) *page {
	if sh.frames < sh.maxFrames {
		sh.frames++
		return &page{data: make([]byte, pageSize)}
	}
	p := sh.tail
	sh.evict(p)
	return p
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
		st.Evictions += sh.evictions
		st.ResidentBytes += sh.bytes
		st.ResidentPages += sh.resident
		sh.mu.Unlock()
	}
	return st
}
