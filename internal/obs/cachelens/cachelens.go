// Package cachelens is the cache-analytics plane shared by the diskgraph
// store's row lookups and the qserve result cache: it turns a cache's
// access stream into numbers an operator can size and tier a cache with.
//
// A Lens observes the access stream of one cache through one nil-safe hook
// — RecordGet(key) on every lookup — and maintains, online:
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
//   - Working-set-size estimation: distinct sampled keys per rolling window
//     (1m and 10m by default), scaled by SampleRate — how much cache the
//     traffic actually touches, per window, independent of capacity.
//
// The lens only samples. The hit, miss and eviction totals belong to the
// cache, which counts them under its own lock; the lens keeps no second
// copy.
//
// Cost discipline: the disabled path is one nil check (every method is
// nil-safe on the receiver, the Tracer/flight-recorder convention). Through
// RecordGet, a lookup of an unsampled key is one 64-bit mix and one mask
// compare, with no shared write; only the 1/SampleRate sampled minority
// takes the Lens mutex.
package cachelens

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultScales are the capacity multiples the MRC is evaluated at.
var DefaultScales = []float64{0.25, 0.5, 1, 2, 4}

// Config tunes a Lens. Zero values select the documented defaults.
type Config struct {
	// SampleRate tracks one key in SampleRate (rounded up to a power of
	// two). 0 selects 64. 1 tracks everything (exact, for tests).
	SampleRate int
	// Capacity is the cache's capacity in entries (pinned rows for the disk
	// store, result entries for the result cache) — the 1x point of the
	// miss-ratio curve. Required (<=0 selects 1).
	Capacity int
	// Scales are the capacity multiples the MRC estimates; nil selects
	// DefaultScales. Must be ascending for the curve to render in order.
	Scales []float64
	// MaxTracked bounds the sampled-key LRU index. 0 sizes it to cover the
	// largest MRC scale with 4x slack; keys pushed out count as cold on
	// their next access (distance beyond every scale of interest).
	MaxTracked int
	// Seed perturbs the sampling hash; a fixed seed makes the sampled key
	// subset — and therefore every estimate — deterministic for a given
	// trace.
	Seed uint64
	// WindowShort / WindowLong are the WSS estimation windows; 0 selects
	// 1m / 10m.
	WindowShort, WindowLong time.Duration
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
	if c.MaxTracked <= 0 {
		maxScale := 1.0
		for _, s := range c.Scales {
			if s > maxScale {
				maxScale = s
			}
		}
		c.MaxTracked = int(maxScale*float64(c.Capacity))/c.SampleRate*4 + 64
	}
	if c.WindowShort <= 0 {
		c.WindowShort = time.Minute
	}
	if c.WindowLong <= 0 {
		c.WindowLong = 10 * time.Minute
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

	ticks atomic.Int64

	// mu guards the sampled-population state: the stack-distance index, the
	// per-scale hit counters, and the WSS windows. Taken only for sampled
	// keys.
	mu         sync.Mutex
	dist       *stackDist
	sampled    int64   // sampled accesses
	cold       int64   // sampled first-touches (miss at every scale)
	scaleHits  []int64 // sampled accesses with est. distance <= scaleCaps[i]
	winShort   window
	winLong    window
	haveWallT0 bool

	stop chan struct{}
	wg   sync.WaitGroup
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
		dist:      newStackDist(cfg.MaxTracked),
		scaleHits: make([]int64, len(cfg.Scales)),
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

// RecordGet observes one cache lookup for key (a page index or a key
// hash), hit or miss alike: the MRC is built from reuse distances, not from
// the cache's verdicts. Call it outside the cache's own locks: the Lens has
// its own mutex and never calls back into the cache.
func (l *Lens) RecordGet(key uint64) {
	if l == nil || mix64(key^l.cfg.Seed)&l.mask != 0 {
		return // the common case: unsampled key, no shared write
	}

	l.mu.Lock()
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
	l.mu.Unlock()
}

func (w *window) add(key uint64) {
	w.seen[key] = struct{}{}
}

// Tick advances the lens's epoch clock: WSS windows past their span roll
// over (their distinct count becomes the window's published estimate).
// Driven by the background ticker when Config.TickEvery is set, or manually
// (with any monotone now) in tests. Safe on nil.
func (l *Lens) Tick(now time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if !l.haveWallT0 {
		// First tick anchors the clock: start the windows.
		l.haveWallT0 = true
		l.winShort.start = now
		l.winLong.start = now
		l.mu.Unlock()
		return
	}
	l.winShort.roll(now, l.cfg.SampleRate)
	l.winLong.roll(now, l.cfg.SampleRate)
	l.mu.Unlock()
	l.ticks.Add(1)
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

// Snapshot is a point-in-time export of everything the lens knows — the
// body of GET /debug/flos/cache.
type Snapshot struct {
	SampleRate int `json:"sample_rate"`
	Capacity   int `json:"capacity"`
	// SampledAccesses / SampledTracked / SampledCold describe the sampled
	// subpopulation behind the curve.
	SampledAccesses int64        `json:"sampled_accesses"`
	SampledTracked  int          `json:"sampled_tracked"`
	SampledCold     int64        `json:"sampled_cold"`
	Curve           []CurvePoint `json:"miss_ratio_curve"`
	WorkingSet      []WSSWindow  `json:"working_set"`
	Ticks           int64        `json:"ticks"`
}

// Snapshot exports the lens state. Nil-safe: a nil lens returns a zero
// snapshot.
func (l *Lens) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	s := Snapshot{
		SampleRate: l.cfg.SampleRate,
		Capacity:   l.cfg.Capacity,
		Ticks:      l.ticks.Load(),
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
	rate := int64(l.cfg.SampleRate)
	s.WorkingSet = []WSSWindow{
		{Window: l.winShort.span.String(), DistinctEst: l.winShort.lastEst,
			CurrentEst: int64(len(l.winShort.seen)) * rate, Rollovers: l.winShort.rolls},
		{Window: l.winLong.span.String(), DistinctEst: l.winLong.lastEst,
			CurrentEst: int64(len(l.winLong.seen)) * rate, Rollovers: l.winLong.rolls},
	}
	l.mu.Unlock()
	return s
}
