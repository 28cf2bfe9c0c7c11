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

	// lens, when non-nil, observes page lookups for the cache-analytics
	// plane (MRC, working-set windows). Misses and hits on keys the lens
	// samples reach it one by one, outside the shard locks; every other hit
	// is counted in its page frame and folded
	// in lensFold at a time (see foldHits). Nil-safe.
	lens *cachelens.Lens
}

const (
	// maxCacheShards bounds the stripe count; 64 comfortably exceeds the
	// core counts this serves while keeping per-shard budgets coarse.
	maxCacheShards = 64
	// lensFold is how many unsampled hits a page counts privately before
	// they reach the lens in one call.
	lensFold = 64
)

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
	hwmPages  int // most pages ever resident at once in this shard
}

// page is one frame. Its fields are guarded by the shard lock, except that
// the reader loading it owns data until it clears loading.
type page struct {
	idx        int64
	data       []byte // page content; capacity is always the page size
	prev, next *page
	loading    bool   // being read from disk: in pages, not on the LRU list
	sampled    bool   // the lens tracks this key: its hits go to the lens one by one
	lensHits   uint32 // hits not yet folded into the lens
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
	sampled, fold := p.sampled, uint32(0)
	if !sampled {
		if p.lensHits++; p.lensHits == lensFold {
			fold, p.lensHits = lensFold, 0
		}
	}
	sh.mu.Unlock()
	if sampled {
		c.lens.RecordGet(uint64(idx), true)
	} else if fold != 0 {
		c.lens.RecordHits(uint64(idx), fold)
	}
	return n, err
}

// fault reads page idx from the file into a frame and copies from it.
// Called with sh.mu held and idx absent from sh.pages; returns unlocked.
func (c *pageCache) fault(sh *cacheShard, dst []byte, idx, inPage int64, onFault func(time.Duration)) (int, error) {
	sh.misses++
	p, victim, victimHits := sh.takeFrame(c.pageSize)
	p.idx, p.loading, p.sampled = idx, true, c.lens.Sampled(uint64(idx))
	sh.pages[idx] = p
	sh.mu.Unlock()

	c.lens.RecordGet(uint64(idx), false)
	if victim >= 0 {
		c.lens.RecordHits(uint64(victim), victimHits)
	}
	var start time.Time
	if onFault != nil {
		start = time.Now()
	}
	err := c.load(p) // disk I/O outside every lock
	if onFault != nil {
		onFault(time.Since(start))
	}

	var n int
	var shed []*page
	sh.mu.Lock()
	p.loading = false
	if err != nil {
		delete(sh.pages, idx)
		sh.frames--
	} else {
		shed = sh.insert(p)
		n, err = p.copyOut(dst, inPage)
	}
	sh.loaded.Broadcast()
	sh.mu.Unlock()
	for _, v := range shed {
		c.lens.RecordHits(uint64(v.idx), v.lensHits)
	}
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
	c.lens.RecordGet(uint64(idx), false)
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

// attachLens starts reporting to lens. Pages already resident were faulted
// in without one: each learns here whether the lens samples it, and the hits
// it counted so far, which the lens never saw the misses for, are dropped.
func (c *pageCache) attachLens(lens *cachelens.Lens) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, p := range sh.pages {
			p.sampled, p.lensHits = lens.Sampled(uint64(p.idx)), 0
		}
		sh.mu.Unlock()
	}
	c.lens = lens
}

// foldHits hands the lens every hit still counted in a page frame, so the
// lens's access total matches the cache's own counters. The lens calls it
// before each snapshot.
func (c *pageCache) foldHits() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for p := sh.head; p != nil; p = p.next {
			c.lens.RecordHits(uint64(p.idx), p.lensHits)
			p.lensHits = 0
		}
		sh.mu.Unlock()
	}
}

// takeFrame returns the frame a fault reads into: a new one while the shard
// is under budget, otherwise the LRU page's, which it evicts (victim is that
// page's index, with the hits it had not yet folded into the lens; -1 when
// nothing was evicted). Only when every frame of the shard is itself
// mid-load does it allocate past the budget; insert sheds that excess.
// Caller holds sh.mu.
func (sh *cacheShard) takeFrame(pageSize int64) (p *page, victim int64, victimHits uint32) {
	if sh.frames < sh.maxFrames || sh.tail == nil {
		sh.frames++
		return &page{data: make([]byte, pageSize)}, -1, 0
	}
	p = sh.tail
	victim, victimHits = p.idx, p.lensHits
	sh.evict(p)
	p.lensHits = 0
	return p, victim, victimHits
}

// insert makes a freshly loaded page resident and, when concurrent faults
// pushed the shard past its frame budget, evicts LRU pages and drops their
// frames until it is back within it; those pages are returned so the caller
// can report them to the lens outside the shard lock. Caller holds sh.mu.
func (sh *cacheShard) insert(p *page) (shed []*page) {
	sh.resident++
	sh.bytes += int64(len(p.data))
	sh.pushFront(p)
	if sh.resident > sh.hwmPages {
		sh.hwmPages = sh.resident
	}
	for sh.frames > sh.maxFrames && sh.tail != p {
		shed = append(shed, sh.tail)
		sh.evict(sh.tail)
		sh.frames--
	}
	return shed
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
	// ResidentPagesHWM is the high-water mark of resident pages — the most
	// the cache ever held at once. HWM well under budget means the budget
	// was never the constraint; HWM at budget with a high eviction rate
	// means the working set does not fit.
	ResidentPagesHWM int
	// Shards is the lock-stripe count.
	Shards int
}

func (c *pageCache) stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for _, ss := range c.shardStats() {
		st.Hits += ss.Hits
		st.Misses += ss.Misses
		st.FaultsDeduped += ss.FaultsDeduped
		st.Evictions += ss.Evictions
		st.ResidentBytes += ss.ResidentBytes
		st.ResidentPages += ss.ResidentPages
		st.ResidentPagesHWM += ss.ResidentPagesHWM
	}
	return st
}

// ShardStat is one lock stripe's view of the page cache: its own
// hit/miss/dedup counters and resident set. Uneven hit ratios across shards
// expose skewed page access (hot adjacency regions) that the aggregate
// Stats averages away.
type ShardStat struct {
	// Shard is the stripe index (page index mod shard count).
	Shard int
	// Hits, Misses, FaultsDeduped as in Stats, per stripe.
	Hits, Misses, FaultsDeduped int64
	// Evictions counts LRU evictions in this stripe.
	Evictions int64
	// ResidentBytes / ResidentPages describe the stripe's occupancy;
	// ResidentPagesHWM is the stripe's all-time occupancy peak.
	ResidentBytes    int64
	ResidentPages    int
	ResidentPagesHWM int
}

// shardStats snapshots each stripe under its own lock. Stripes are read
// sequentially, so the slice is per-shard consistent, not a global atomic
// snapshot — the same contract concurrent readers already get from stats.
func (c *pageCache) shardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out[i] = ShardStat{
			Shard:            i,
			Hits:             sh.hits,
			Misses:           sh.misses,
			FaultsDeduped:    sh.dedups,
			Evictions:        sh.evictions,
			ResidentBytes:    sh.bytes,
			ResidentPages:    sh.resident,
			ResidentPagesHWM: sh.hwmPages,
		}
		sh.mu.Unlock()
	}
	return out
}
