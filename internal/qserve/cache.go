package qserve

import (
	"container/list"
	"math"
	"slices"
	"sync"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/measure"
	"flos/internal/obs/cachelens"
)

// cacheKey identifies one answer: the query it answers and the epoch of the
// topology snapshot it was computed on. Every option that can change the
// result participates in the query half, which is also the cache's map key,
// so one query holds at most one entry and the epoch lives on the entry
// (Mutate moves a retained entry to the new epoch in place, see invalidate).
// The serving mode and ε budget are part of the query because they change
// what the answer certifies; exactKey exposes the deliberate asymmetry that
// an exact entry may serve ε/anytime requests (see Pool.prepare).
type cacheKey struct {
	epoch uint64
	queryKey
}

type queryKey struct {
	q          graph.NodeID
	unified    bool
	kind       measure.Kind
	params     measure.Params
	k          int
	maxVisited int
	mode       core.Mode
	epsilon    float64
}

func keyOf(epoch uint64, req Request) cacheKey {
	return cacheKey{epoch: epoch, queryKey: queryKey{
		q:          req.Query,
		unified:    req.Unified,
		kind:       req.Opt.Measure,
		params:     req.Opt.Params,
		k:          req.Opt.K,
		maxVisited: req.Opt.MaxVisited,
		mode:       req.Opt.Mode,
		epsilon:    req.Opt.Epsilon,
	}}
}

// hashKey folds a cacheKey into the uint64 identity the analytics lens
// tracks (FNV-1a combine over every field; the lens re-mixes with its own
// seeded finalizer, so this only needs to separate distinct keys). The
// epoch participates: an entry from a retired epoch really is a different
// cache entry, and reuse across epochs is a cold access by construction.
func hashKey(k cacheKey) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	mix(k.epoch)
	mix(uint64(k.q))
	mix(b(k.unified))
	mix(uint64(k.kind))
	mix(math.Float64bits(k.params.C))
	mix(uint64(k.params.L))
	mix(math.Float64bits(k.params.Tau))
	mix(uint64(k.params.MaxIter))
	mix(uint64(k.k))
	mix(uint64(k.maxVisited))
	mix(uint64(k.mode))
	mix(math.Float64bits(k.epsilon))
	return h
}

// exactKey is k with the serving mode stripped back to exact. An exact
// answer is a valid (indeed, the best possible) answer for the same query
// in ε or anytime mode, so mode lookups fall back to it; the converse never
// holds — an ε answer must not serve an exact request.
func exactKey(k cacheKey) cacheKey {
	k.mode = core.ModeExact
	k.epsilon = 0
	return k
}

// resultCache is a mutex-guarded LRU of completed responses. Entries are
// shared, never copied: a Response stored here must not be mutated.
//
// Capacity is counted in result rows, not entries: an entry costs one unit
// per rowsPerUnit rows it holds (at least one), and the least recently used
// entries go while the total exceeds max. A top-10 answer costs 1 and a
// top-200 answer 13, so max bounds retained memory whatever k the traffic
// asks for; with every k ≤ rowsPerUnit it is plain LRU over max entries.
type resultCache struct {
	mu   sync.Mutex
	max  int
	cost int        // Σ entry costs, kept exact by every insert and removal
	ll   *list.List // front = most recently used; values are *cacheEntry
	m    map[queryKey]*list.Element

	hits, misses, evictions int64

	// lens, when non-nil, samples lookups for the cache analytics plane:
	// every get reaches it once, outside mu. Nil-safe.
	lens *cachelens.Lens
}

// rowsPerUnit is how many result rows one unit of cache capacity holds.
const rowsPerUnit = 16

// entryCost is the capacity resp takes: its result rows, both lists of a
// unified answer, in units of rowsPerUnit rounded up, at least one.
func entryCost(resp *Response) int {
	rows := len(resp.TopK.TopK)
	if resp.Unified != nil {
		rows += len(resp.Unified.RWR)
	}
	return max(1, (rows+rowsPerUnit-1)/rowsPerUnit)
}

type cacheEntry struct {
	key  cacheKey
	resp *Response
	cost int

	// Live-mode invalidation state, nil/zero on non-live pools. fp is the
	// query's full read footprint (visited ∪ degree-probed nodes), sorted;
	// guard/guarded implement the RWR w(S̄) rule: a guarded entry also goes
	// stale when a mutation raises some touched node's degree above the
	// ceiling the search certified against, because the unvisited-mass bound
	// quietly leaned on that ceiling even outside the footprint.
	fp      []graph.NodeID
	guard   float64
	guarded bool
}

func newResultCache(max int, lens *cachelens.Lens) *resultCache {
	return &resultCache{
		max:  max,
		ll:   list.New(),
		m:    make(map[queryKey]*list.Element, max),
		lens: lens,
	}
}

// lookup returns k's entry if the cache holds it at k's epoch.
func (c *resultCache) lookup(k cacheKey) (*list.Element, bool) {
	el, ok := c.m[k.queryKey]
	return el, ok && el.Value.(*cacheEntry).key.epoch == k.epoch
}

func (c *resultCache) get(k cacheKey) (*Response, bool) {
	c.mu.Lock()
	el, ok := c.lookup(k)
	if !ok && k.mode != core.ModeExact {
		// Exact-serves-ε asymmetry: an exact entry answers the same query in
		// ε or anytime mode (its gap is 0, within any budget). An ε entry
		// never serves an exact request — that direction is not probed.
		el, ok = c.lookup(exactKey(k))
	}
	var resp *Response
	if ok {
		c.hits++
		c.ll.MoveToFront(el)
		resp = el.Value.(*cacheEntry).resp
	} else {
		c.misses++
	}
	c.mu.Unlock()
	c.lens.RecordGet(hashKey(k))
	return resp, ok
}

func (c *resultCache) put(k cacheKey, resp *Response) {
	c.putLive(k, resp, nil, 0, false)
}

// putLive stores a response, optionally together with its read footprint so
// later mutation batches can invalidate it surgically (nil footprint on
// non-live pools — put delegates here). An answer replaces the query's entry
// in place when it is at the same or a newer epoch; a straggler, computed on
// an older snapshot than the resident entry, is dropped.
func (c *resultCache) putLive(k cacheKey, resp *Response, fp []graph.NodeID, guard float64, guarded bool) {
	cost := entryCost(resp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k.queryKey]; ok {
		e := el.Value.(*cacheEntry)
		if e.key.epoch > k.epoch {
			return
		}
		c.cost += cost - e.cost
		e.key.epoch = k.epoch
		e.resp, e.cost, e.fp, e.guard, e.guarded = resp, cost, fp, guard, guarded
		c.ll.MoveToFront(el)
	} else {
		c.m[k.queryKey] = c.ll.PushFront(&cacheEntry{key: k, resp: resp, cost: cost, fp: fp, guard: guard, guarded: guarded})
		c.cost += cost
	}
	// An answer larger than the whole cache evicts everything, itself last.
	for c.cost > c.max {
		oldest := c.ll.Back()
		delete(c.m, oldest.Value.(*cacheEntry).key.queryKey)
		c.unlink(oldest)
		c.evictions++
	}
}

// unlink takes el off the LRU list and its cost off the total; the caller
// owns the map entry.
func (c *resultCache) unlink(el *list.Element) {
	c.ll.Remove(el)
	c.cost -= el.Value.(*cacheEntry).cost
}

// invalidate walks every entry after a mutation batch moved the graph from
// oldEpoch to newEpoch. touched is the sorted list of nodes whose adjacency
// the batch changed; maxTouchedDeg is the largest new degree among them.
//
// Per entry:
//   - epoch == newEpoch: a query raced ahead and cached against the new
//     snapshot already (replacing the older entry in place) — valid, keep.
//   - epoch == oldEpoch, footprint disjoint from touched and the guard rule
//     silent: the batch provably cannot change this answer (the search read
//     none of the mutated rows, probed none of the mutated degrees, and no
//     degree rose above the certified w(S̄) ceiling) — stamp it with
//     newEpoch in place so future lookups keep hitting it (retained).
//   - epoch == oldEpoch, footprint intersected or guard rule fired: evict
//     (surgical).
//   - anything older: straggler from a pre-batch query that finished after a
//     later batch's walk; it can never be served again — drop (counted as
//     surgical, it is the same per-entry invalidation).
//
// The walk costs O(|T|·log|fp|) per entry and inserts nothing into the map.
func (c *resultCache) invalidate(oldEpoch, newEpoch uint64, touched []graph.NodeID, maxTouchedDeg float64) (surgical, retained int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		switch {
		case e.key.epoch == newEpoch: // raced ahead: keep
		case e.key.epoch == oldEpoch &&
			e.fp != nil &&
			!intersectsSorted(touched, e.fp) &&
			!(e.guarded && maxTouchedDeg > e.guard):
			e.key.epoch = newEpoch
			retained++
		default:
			delete(c.m, e.key.queryKey)
			c.unlink(el)
			surgical++
		}
	}
	return surgical, retained
}

func (c *resultCache) counters() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.ll.Len()
}

// intersectsSorted reports whether two ascending NodeID slices share an
// element: a binary search in b for each element of a, so O(|a|·log|b|),
// which pays when a is the short one.
func intersectsSorted(a, b []graph.NodeID) bool {
	for _, v := range a {
		if _, found := slices.BinarySearch(b, v); found {
			return true
		}
	}
	return false
}
