// Package cachelens is the cache-analytics plane shared by the diskgraph
// page cache and the qserve result cache: it turns raw hit/miss totals into
// numbers an operator can size and tier a cache with.
//
// A Lens observes the access stream of one cache through two nil-safe hooks
// — RecordGet(key, hit) on every lookup and RecordEvict(key) on every
// capacity eviction — and maintains, online:
//
//   - A miss-ratio curve (MRC): the estimated hit ratio the same traffic
//     would see at 0.25x/0.5x/1x/2x/4x of the current capacity, via
//     SHARDS-style spatial sampling (Waldspurger et al., FAST'15): only keys
//     whose seeded hash lands under 1/SampleRate are tracked, their exact
//     LRU stack distance among the sampled set is measured with a Fenwick
//     tree (see stackdist.go), and distances scale by SampleRate to estimate
//     the full-population stack distance. The LRU stack-inclusion property
//     turns one distance into a verdict at every scale at once: the access
//     would hit any capacity at or above its stack distance.
//   - A ghost list: a bounded FIFO of recently evicted keys, sized to the
//     cache's own capacity, so "would have hit at ~2x" is also measured
//     directly (a miss that finds its key in the ghost list would have been
//     a hit had the cache been one ghost-list deeper). The ghost counter
//     cross-checks the MRC's 2x point with zero modeling assumptions.
//   - Decayed per-block access counters: every access bumps a fixed-point
//     heat slot for its block ID, and each epoch tick multiplies all slots
//     by a decay factor derived from HeatHalfLife — the hot/cold heatmap
//     that drives hot/cold block tiering. For dense block spaces (page
//     indices) slots map one-to-one; hashed key spaces fold modulo the slot
//     count.
//   - Working-set-size estimation: distinct sampled keys per rolling window
//     (1m and 10m by default), scaled by SampleRate — how much cache the
//     traffic actually touches, per window, independent of capacity.
//
// Cost discipline: the disabled path is one nil check (every method is
// nil-safe on the receiver, the Tracer/flight-recorder convention). Through
// RecordGet, a cache hit on an unsampled key is one 64-bit mix, one mask
// compare, and two atomic adds; only the 1/SampleRate sampled minority and
// the (already slow) miss path take the Lens mutex. A cache whose hit path is
// too hot even for that (the page cache: thousands of page hits per query)
// asks Sampled once when a key enters, counts the unsampled keys' hits under
// its own lock, and hands them over in batches with RecordHits.
package cachelens

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultScales are the capacity multiples the MRC is evaluated at.
var DefaultScales = []float64{0.25, 0.5, 1, 2, 4}

// heatOne is the fixed-point unit of the heat slots: counters are atomic
// int64s holding heat * heatOne, so increments are a single atomic add and
// decay is a CAS multiply.
const heatOne = 1 << 20

// Config tunes a Lens. Zero values select the documented defaults.
type Config struct {
	// SampleRate tracks one key in SampleRate (rounded up to a power of
	// two). 0 selects 64. 1 tracks everything (exact, for tests).
	SampleRate int
	// Capacity is the cache's capacity in entries (resident pages for the
	// page cache, result entries for the result cache) — the 1x point of
	// the miss-ratio curve. Required (<=0 selects 1).
	Capacity int
	// Scales are the capacity multiples the MRC estimates; nil selects
	// DefaultScales. Must be ascending for the curve to render in order.
	Scales []float64
	// GhostEntries bounds the evicted-key ghost list; 0 selects Capacity,
	// so resident + ghost together cover ~2x and a ghost hit means "would
	// have hit at twice the capacity".
	GhostEntries int
	// MaxTracked bounds the sampled-key LRU index. 0 sizes it to cover the
	// largest MRC scale with 4x slack; keys pushed out count as cold on
	// their next access (distance beyond every scale of interest).
	MaxTracked int
	// HeatSlots is the size of the block-heat array; 0 selects 16384. When
	// Blocks is positive and fits, slots map to block IDs one-to-one;
	// otherwise block IDs fold modulo HeatSlots.
	HeatSlots int
	// Blocks is the dense block-ID space size (file pages for the page
	// cache); 0 means keys are a hashed space with no dense interpretation.
	Blocks int64
	// Seed perturbs the sampling hash; a fixed seed makes the sampled key
	// subset — and therefore every estimate — deterministic for a given
	// trace.
	Seed uint64
	// WindowShort / WindowLong are the WSS estimation windows; 0 selects
	// 1m / 10m.
	WindowShort, WindowLong time.Duration
	// HeatHalfLife is the heat-decay half-life; 0 selects 2m. Applied at
	// Tick granularity.
	HeatHalfLife time.Duration
	// TickEvery, when positive, starts a background goroutine calling Tick
	// at that period (stop it with Close). 0 leaves ticking to the caller —
	// the deterministic mode tests use.
	TickEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 {
		c.SampleRate = 64
	}
	// Round the rate up to a power of two so sampling is one mask compare.
	r := 1
	for r < c.SampleRate {
		r <<= 1
	}
	c.SampleRate = r
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	// A rate coarser than the population it samples estimates from a handful
	// of keys and produces garbage curves (the estimator's variance scales
	// inversely with the sampled count). Keep at least ~16 expected sampled
	// keys at 1x capacity by refining the rate for small caches — where the
	// extra tracking is proportionally cheap anyway.
	for c.SampleRate > 1 && c.Capacity/c.SampleRate < 16 {
		c.SampleRate >>= 1
	}
	if len(c.Scales) == 0 {
		c.Scales = DefaultScales
	}
	if c.GhostEntries <= 0 {
		c.GhostEntries = c.Capacity
	}
	if c.MaxTracked <= 0 {
		maxScale := 1.0
		for _, s := range c.Scales {
			if s > maxScale {
				maxScale = s
			}
		}
		c.MaxTracked = int(maxScale*float64(c.Capacity))/c.SampleRate*4 + 64
	}
	if c.HeatSlots <= 0 {
		c.HeatSlots = 16384
	}
	if c.WindowShort <= 0 {
		c.WindowShort = time.Minute
	}
	if c.WindowLong <= 0 {
		c.WindowLong = 10 * time.Minute
	}
	if c.HeatHalfLife <= 0 {
		c.HeatHalfLife = 2 * time.Minute
	}
	return c
}

// Lens is one cache's analytics state. All methods are safe for concurrent
// use and nil-safe on the receiver, so a disabled lens costs its callers a
// nil check and nothing else.
type Lens struct {
	cfg       Config
	mask      uint64 // hash & mask == 0 selects a sampled key
	scaleCaps []int  // capacity at each cfg.Scales entry, >= 1

	// Full-stream counters: every RecordGet lands here, atomically.
	hits   atomic.Int64
	misses atomic.Int64

	// Heat: fixed-point decayed access counters, one slot per block (dense)
	// or per hash fold. denseHeat marks the one-to-one mapping.
	heat      []atomic.Int64
	denseHeat bool
	ticks     atomic.Int64

	// mu guards the sampled-population state: the stack-distance index, the
	// per-scale hit counters, the WSS windows, and the ghost list. Taken
	// only for sampled keys and on the miss path.
	mu         sync.Mutex
	dist       *stackDist
	sampled    int64             // sampled accesses
	cold       int64             // sampled first-touches (miss at every scale)
	scaleHits  []int64           // sampled accesses with est. distance <= scaleCaps[i]
	evictions  int64             // RecordEvict calls
	ghost      map[uint64]uint64 // key -> seq of its live FIFO slot
	ghostFIFO  []ghostEntry
	ghostHead  int
	ghostSeq   uint64
	ghostHits  int64
	winShort   window
	winLong    window
	lastDecay  time.Time
	haveWallT0 bool

	// beforeSnapshot, when set, lets the cache fold in the hits it has
	// batched for RecordHits before a snapshot reads the totals.
	beforeSnapshot func()

	stop chan struct{}
	wg   sync.WaitGroup
}

// ghostEntry is one FIFO slot of the ghost list. The sequence number lets a
// key leave (ghost hit) and re-enter (re-eviction) without its stale slot
// deleting the newer entry when it reaches the head.
type ghostEntry struct {
	key uint64
	seq uint64
}

// window is one WSS estimation window: the distinct sampled keys seen since
// start, plus the estimate the last completed window produced.
type window struct {
	span    time.Duration
	start   time.Time
	seen    map[uint64]struct{}
	lastEst int64 // distinct * SampleRate of the last completed window
	rolls   int64
}

// New builds a Lens. When cfg.TickEvery is positive a background ticker
// drives Tick until Close.
func New(cfg Config) *Lens {
	cfg = cfg.withDefaults()
	l := &Lens{
		cfg:       cfg,
		mask:      uint64(cfg.SampleRate - 1),
		scaleCaps: make([]int, len(cfg.Scales)),
		heat:      make([]atomic.Int64, cfg.HeatSlots),
		denseHeat: cfg.Blocks > 0 && cfg.Blocks <= int64(cfg.HeatSlots),
		dist:      newStackDist(cfg.MaxTracked),
		scaleHits: make([]int64, len(cfg.Scales)),
		ghost:     make(map[uint64]uint64, cfg.GhostEntries),
		ghostFIFO: make([]ghostEntry, 0, cfg.GhostEntries),
	}
	for i, s := range cfg.Scales {
		c := int(math.Round(s * float64(cfg.Capacity)))
		if c < 1 {
			c = 1
		}
		l.scaleCaps[i] = c
	}
	l.winShort = window{span: cfg.WindowShort, seen: make(map[uint64]struct{})}
	l.winLong = window{span: cfg.WindowLong, seen: make(map[uint64]struct{})}
	if cfg.TickEvery > 0 {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.tickLoop(cfg.TickEvery)
	}
	return l
}

// Close stops the background ticker, if any. Safe on nil.
func (l *Lens) Close() {
	if l == nil || l.stop == nil {
		return
	}
	close(l.stop)
	l.wg.Wait()
	l.stop = nil
}

func (l *Lens) tickLoop(every time.Duration) {
	defer l.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			l.Tick(now)
		case <-l.stop:
			return
		}
	}
}

// mix64 is the splitmix64 finalizer — the sampling hash. Its low bits are
// uniform, so `mix64(key^seed) & (rate-1) == 0` samples keys spatially at
// rate 1/rate: the same key is always in or always out, which is what makes
// per-key reuse distances observable at all.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RecordGet observes one cache lookup for key (a page index or a key hash)
// and whether it hit. Call it outside the cache's own locks: the Lens has
// its own mutex and never calls back into the cache.
func (l *Lens) RecordGet(key uint64, hit bool) {
	if l == nil {
		return
	}
	if hit {
		l.hits.Add(1)
	} else {
		l.misses.Add(1)
	}
	// Heat is counted on every access (not just sampled ones): the heatmap
	// ranks blocks by true traffic.
	l.heatSlot(key).Add(heatOne)

	sampledKey := l.Sampled(key)
	if !sampledKey && hit {
		return // the common case: unsampled hit, no lock taken
	}

	l.mu.Lock()
	if sampledKey {
		l.sampled++
		d, cold := l.dist.access(key)
		if cold {
			l.cold++
		} else {
			est := d * l.cfg.SampleRate
			for i, c := range l.scaleCaps {
				if est <= c {
					l.scaleHits[i]++
				}
			}
		}
		l.winShort.add(key)
		l.winLong.add(key)
	}
	if !hit {
		if _, ok := l.ghost[key]; ok {
			l.ghostHits++
			delete(l.ghost, key)
			// The FIFO slot is lazily reclaimed when it reaches the head.
		}
	}
	l.mu.Unlock()
}

// heatSlot returns key's heat counter: its own slot in a dense block space,
// a hash fold otherwise.
func (l *Lens) heatSlot(key uint64) *atomic.Int64 {
	if !l.denseHeat {
		key = mix64(key ^ l.cfg.Seed)
	}
	return &l.heat[key%uint64(len(l.heat))]
}

// Sampled reports whether key is in the spatially sampled subset whose
// reuse distances the lens tracks. It is a pure function of the key and the
// seed, so a cache can ask once when the key enters and remember the answer.
// False on a nil lens.
func (l *Lens) Sampled(key uint64) bool {
	return l != nil && mix64(key^l.cfg.Seed)&l.mask == 0
}

// RecordHits observes n cache hits on key at once. It is RecordGet(key,
// true) n times over for a key that is not Sampled — totals and heat only,
// no lock — and must not be used for a sampled key, whose every access has
// to reach the stack-distance index in order.
func (l *Lens) RecordHits(key uint64, n uint32) {
	if l == nil || n == 0 {
		return
	}
	l.hits.Add(int64(n))
	l.heatSlot(key).Add(int64(n) * heatOne)
}

// OnSnapshot registers fn to run at the start of every Snapshot, before any
// lens state is read: the hook a cache that batches RecordHits uses to fold
// in what it still holds, so a snapshot's access total matches the cache's
// own counters. Set it before the lens sees traffic. Safe on nil.
func (l *Lens) OnSnapshot(fn func()) {
	if l != nil {
		l.beforeSnapshot = fn
	}
}

func (w *window) add(key uint64) {
	w.seen[key] = struct{}{}
}

// RecordEvict observes one capacity eviction: key enters the ghost list, so
// a near-future miss on it is counted as a would-have-hit at ~2x capacity.
// Invalidations (epoch flushes, surgical evictions) should NOT be recorded —
// those entries were dropped for correctness, not for space, and counting
// them would overstate what a bigger cache could have kept.
func (l *Lens) RecordEvict(key uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.evictions++
	if _, ok := l.ghost[key]; !ok {
		l.ghostSeq++
		l.ghost[key] = l.ghostSeq
		l.ghostFIFO = append(l.ghostFIFO, ghostEntry{key: key, seq: l.ghostSeq})
	}
	// Bound the FIFO's live region (which is a superset of the map: keys
	// that left via a ghost hit keep a stale slot until it reaches the
	// head). A stale slot's sequence no longer matches the map, so popping
	// it never deletes a re-entered key's newer entry.
	for len(l.ghostFIFO)-l.ghostHead > l.cfg.GhostEntries {
		e := l.ghostFIFO[l.ghostHead]
		l.ghostHead++
		if seq, ok := l.ghost[e.key]; ok && seq == e.seq {
			delete(l.ghost, e.key)
		}
	}
	if l.ghostHead > l.cfg.GhostEntries && l.ghostHead > len(l.ghostFIFO)/2 {
		l.ghostFIFO = append(l.ghostFIFO[:0], l.ghostFIFO[l.ghostHead:]...)
		l.ghostHead = 0
	}
	l.mu.Unlock()
}

// Tick advances the lens's epoch clock: heat slots decay by the half-life
// factor for the elapsed wall time, and WSS windows past their span roll
// over (their distinct count becomes the window's published estimate).
// Driven by the background ticker when Config.TickEvery is set, or manually
// (with any monotone now) in tests. Safe on nil.
func (l *Lens) Tick(now time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if !l.haveWallT0 {
		// First tick anchors the clock: start the windows, decay nothing.
		l.haveWallT0 = true
		l.lastDecay = now
		l.winShort.start = now
		l.winLong.start = now
		l.mu.Unlock()
		return
	}
	elapsed := now.Sub(l.lastDecay)
	l.lastDecay = now
	l.winShort.roll(now, l.cfg.SampleRate)
	l.winLong.roll(now, l.cfg.SampleRate)
	l.mu.Unlock()
	l.ticks.Add(1)

	if elapsed <= 0 {
		return
	}
	f := math.Exp2(-float64(elapsed) / float64(l.cfg.HeatHalfLife))
	for i := range l.heat {
		s := &l.heat[i]
		for {
			old := s.Load()
			if old == 0 {
				break
			}
			if s.CompareAndSwap(old, int64(float64(old)*f)) {
				break
			}
		}
	}
}

func (w *window) roll(now time.Time, rate int) {
	if now.Sub(w.start) < w.span {
		return
	}
	w.lastEst = int64(len(w.seen)) * int64(rate)
	clear(w.seen)
	w.start = now
	w.rolls++
}

// CurvePoint is one scale of the miss-ratio curve.
type CurvePoint struct {
	// Scale is the capacity multiple (1.0 = the cache as deployed).
	Scale float64 `json:"scale"`
	// Capacity is the entry count at this scale.
	Capacity int `json:"capacity"`
	// EstHitRatio / EstMissRatio estimate the hit and miss ratios the
	// recorded traffic would see at this capacity under LRU.
	EstHitRatio  float64 `json:"est_hit_ratio"`
	EstMissRatio float64 `json:"est_miss_ratio"`
}

// GhostSnapshot is the direct would-have-hit measurement.
type GhostSnapshot struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Evictions counts RecordEvict calls (ghost-list inserts).
	Evictions int64 `json:"evictions"`
	// WouldHaveHits counts misses whose key was still in the ghost list —
	// hits a cache one ghost-list deeper (~2x) would have served.
	WouldHaveHits int64 `json:"would_have_hits"`
	// HitRatioAt2x is (hits + would-have-hits) / accesses: the directly
	// measured counterpart of the MRC's 2x estimate.
	HitRatioAt2x float64 `json:"hit_ratio_at_2x"`
}

// WSSWindow is one working-set window's estimate.
type WSSWindow struct {
	// Window is the span, as a Go duration string ("1m0s").
	Window string `json:"window"`
	// DistinctEst is the scaled distinct-key estimate of the last completed
	// window (0 until one completes).
	DistinctEst int64 `json:"distinct_est"`
	// CurrentEst is the scaled estimate of the in-progress window.
	CurrentEst int64 `json:"current_est"`
	// Rollovers counts completed windows.
	Rollovers int64 `json:"rollovers"`
}

// HotBlock is one row of the heat ranking.
type HotBlock struct {
	// Block is the block ID for dense spaces, otherwise the heat-slot index
	// the key space folds into.
	Block int64 `json:"block"`
	// Heat is the decayed access count.
	Heat float64 `json:"heat"`
}

// Snapshot is a point-in-time export of everything the lens knows — the
// body of GET /debug/flos/cache and the input of `flos -cachereport`.
type Snapshot struct {
	SampleRate int   `json:"sample_rate"`
	Capacity   int   `json:"capacity"`
	Accesses   int64 `json:"accesses"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	// HitRatio is the measured hit ratio at the deployed capacity; compare
	// with the curve's 1x point to judge the sampler's calibration.
	HitRatio float64 `json:"hit_ratio"`
	// SampledAccesses / SampledTracked / SampledCold describe the sampled
	// subpopulation behind the curve.
	SampledAccesses int64         `json:"sampled_accesses"`
	SampledTracked  int           `json:"sampled_tracked"`
	SampledCold     int64         `json:"sampled_cold"`
	Curve           []CurvePoint  `json:"miss_ratio_curve"`
	Ghost           GhostSnapshot `json:"ghost"`
	WorkingSet      []WSSWindow   `json:"working_set"`
	// HotBlocks ranks the heat slots, hottest first (top N as requested).
	HotBlocks []HotBlock `json:"hot_blocks"`
	// DenseBlocks reports whether HotBlocks[].Block is a real block ID
	// (page index) or a hash fold.
	DenseBlocks bool  `json:"dense_blocks"`
	Ticks       int64 `json:"ticks"`
}

// Snapshot exports the lens state with the top N heat slots (N<=0 selects
// 20). Nil-safe: a nil lens returns a zero snapshot.
func (l *Lens) Snapshot(topN int) Snapshot {
	if l == nil {
		return Snapshot{}
	}
	if topN <= 0 {
		topN = 20
	}
	if l.beforeSnapshot != nil {
		l.beforeSnapshot()
	}
	hits, misses := l.hits.Load(), l.misses.Load()
	s := Snapshot{
		SampleRate:  l.cfg.SampleRate,
		Capacity:    l.cfg.Capacity,
		Accesses:    hits + misses,
		Hits:        hits,
		Misses:      misses,
		DenseBlocks: l.denseHeat,
		Ticks:       l.ticks.Load(),
	}
	if s.Accesses > 0 {
		s.HitRatio = float64(hits) / float64(s.Accesses)
	}

	l.mu.Lock()
	s.SampledAccesses = l.sampled
	s.SampledTracked = l.dist.size
	s.SampledCold = l.cold
	s.Curve = make([]CurvePoint, len(l.scaleCaps))
	for i, c := range l.scaleCaps {
		p := CurvePoint{Scale: l.cfg.Scales[i], Capacity: c}
		if l.sampled > 0 {
			p.EstHitRatio = float64(l.scaleHits[i]) / float64(l.sampled)
		}
		p.EstMissRatio = 1 - p.EstHitRatio
		s.Curve[i] = p
	}
	s.Ghost = GhostSnapshot{
		Entries:       len(l.ghost),
		Capacity:      l.cfg.GhostEntries,
		Evictions:     l.evictions,
		WouldHaveHits: l.ghostHits,
	}
	if s.Accesses > 0 {
		s.Ghost.HitRatioAt2x = float64(hits+l.ghostHits) / float64(s.Accesses)
	}
	rate := int64(l.cfg.SampleRate)
	s.WorkingSet = []WSSWindow{
		{Window: l.winShort.span.String(), DistinctEst: l.winShort.lastEst,
			CurrentEst: int64(len(l.winShort.seen)) * rate, Rollovers: l.winShort.rolls},
		{Window: l.winLong.span.String(), DistinctEst: l.winLong.lastEst,
			CurrentEst: int64(len(l.winLong.seen)) * rate, Rollovers: l.winLong.rolls},
	}
	l.mu.Unlock()

	s.HotBlocks = l.topHeat(topN)
	return s
}

// topHeat scans the heat slots and returns the hottest n as decayed counts,
// descending. A linear scan with a small bounded selection keeps the
// snapshot allocation-light; slots with zero heat are skipped.
func (l *Lens) topHeat(n int) []HotBlock {
	top := make([]HotBlock, 0, n)
	for i := range l.heat {
		v := l.heat[i].Load()
		if v == 0 {
			continue
		}
		hb := HotBlock{Block: int64(i), Heat: float64(v) / heatOne}
		if len(top) < n {
			top = append(top, hb)
			for j := len(top) - 1; j > 0 && top[j].Heat > top[j-1].Heat; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
			continue
		}
		if hb.Heat <= top[n-1].Heat {
			continue
		}
		top[n-1] = hb
		for j := n - 1; j > 0 && top[j].Heat > top[j-1].Heat; j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	return top
}

// Evictions returns the RecordEvict total. Nil-safe.
func (l *Lens) Evictions() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}
