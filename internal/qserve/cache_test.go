package qserve

import (
	"math/rand"
	"slices"
	"testing"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/measure"
)

// rowsResp is a single-measure response holding rows result rows.
func rowsResp(rows int) *Response {
	return &Response{TopK: &core.Result{TopK: make([]measure.Ranked, rows)}}
}

// cacheState walks the LRU list, most recent first: the query node of every
// entry, and the rows and costs they add up to.
func cacheState(c *resultCache) (qs []graph.NodeID, rows, cost int) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		qs = append(qs, e.key.q)
		if e.resp.TopK != nil {
			rows += len(e.resp.TopK.TopK)
		} else {
			rows += len(e.resp.Unified.PHPFamily) + len(e.resp.Unified.RWR)
		}
		cost += e.cost
	}
	return qs, rows, cost
}

// requireCacheBound checks what the capacity promises after any operation:
// the running cost is the sum over the resident entries, it is within max,
// and so the cache holds at most max × rowsPerUnit rows; list and map agree.
func requireCacheBound(t *testing.T, c *resultCache) {
	t.Helper()
	qs, rows, cost := cacheState(c)
	if c.cost != cost {
		t.Fatalf("running cost %d, entries sum to %d", c.cost, cost)
	}
	if cost > c.max || rows > c.max*rowsPerUnit {
		t.Fatalf("cache over capacity: cost %d of %d, %d rows", cost, c.max, rows)
	}
	if len(qs) != len(c.m) {
		t.Fatalf("list holds %d entries, map %d", len(qs), len(c.m))
	}
}

// TestResultCacheCountsRows pins the capacity unit: an entry costs
// ⌈rows/16⌉, so top-200 traffic retains at most max × 16 rows instead of
// max × 200, while traffic at k ≤ 16 evicts in exactly the plain-LRU order an
// entry-counted cache had.
func TestResultCacheCountsRows(t *testing.T) {
	key := func(epoch uint64, q int) cacheKey {
		return cacheKey{epoch: epoch, queryKey: queryKey{q: graph.NodeID(q), k: 1}}
	}

	t.Run("k=200 stays within max*16 rows", func(t *testing.T) {
		c := newResultCache(64, nil)
		for q := 0; q < 40; q++ {
			c.put(key(1, q), rowsResp(200))
			requireCacheBound(t, c)
		}
		if qs, _, _ := cacheState(c); len(qs) != 4 { // 13 units each: 4 fit in 64
			t.Fatalf("retained %d top-200 entries, want 4", len(qs))
		}
		// Replace in place, smaller then larger: the cost follows the entry,
		// and growth evicts from the cold end like an insert does.
		c.put(key(1, 39), rowsResp(10))
		requireCacheBound(t, c)
		c.put(key(1, 40), rowsResp(200))
		requireCacheBound(t, c)
		c.put(key(1, 39), rowsResp(200))
		requireCacheBound(t, c)
		if qs, _, _ := cacheState(c); len(qs) != 4 || qs[0] != 39 {
			t.Fatalf("after replacing in place: resident %v, want 4 entries led by 39", qs)
		}
		// A unified answer counts both of its lists.
		c.put(key(1, 41), &Response{Unified: &core.UnifiedResult{
			PHPFamily: make([]measure.Ranked, 200), RWR: make([]measure.Ranked, 200)}})
		requireCacheBound(t, c)
		if e := c.ll.Front().Value.(*cacheEntry); e.cost != 25 {
			t.Fatalf("unified 200+200 rows costs %d, want 25", e.cost)
		}
		// An answer larger than the whole cache is not retained.
		small := newResultCache(4, nil)
		small.put(key(1, 0), rowsResp(10))
		small.put(key(1, 1), rowsResp(200))
		requireCacheBound(t, small)
		if qs, _, _ := cacheState(small); len(qs) != 0 {
			t.Fatalf("oversized answer left %v resident", qs)
		}
	})

	t.Run("invalidation keeps the cost exact", func(t *testing.T) {
		c := newResultCache(64, nil)
		fp := func(q int) []graph.NodeID { return []graph.NodeID{graph.NodeID(q)} }
		c.putLive(key(1, 0), rowsResp(200), fp(0), 0, false) // touched: evicted
		c.putLive(key(1, 1), rowsResp(100), fp(1), 0, false) // disjoint: retained
		c.putLive(key(1, 2), rowsResp(40), fp(2), 0, false)  // disjoint, but...
		c.putLive(key(2, 2), rowsResp(40), fp(2), 0, false)  // ...a raced-ahead answer replaces it in place
		requireCacheBound(t, c)
		surgical, retained := c.invalidate(1, 2, fp(0), 0)
		if surgical != 1 || retained != 1 {
			t.Fatalf("surgical=%d retained=%d, want 1/1", surgical, retained)
		}
		requireCacheBound(t, c)
		if c.cost != 7+3 {
			t.Fatalf("cost %d after invalidation, want 10 (100 rows + 40 rows)", c.cost)
		}
		n := 0
		for el := c.ll.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry); e.key.q == 2 {
				n++
				if e.key.epoch != 2 {
					t.Fatalf("q=2 entry at epoch %d, want 2", e.key.epoch)
				}
			}
		}
		if n != 1 {
			t.Fatalf("%d resident entries for q=2, want 1", n)
		}
	})

	t.Run("a straggler does not replace a newer entry", func(t *testing.T) {
		c := newResultCache(64, nil)
		newer := rowsResp(10)
		c.putLive(key(2, 5), newer, []graph.NodeID{5}, 0, false)
		c.putLive(key(1, 5), rowsResp(200), []graph.NodeID{5}, 0, false)
		requireCacheBound(t, c)
		if c.cost != 1 || c.ll.Len() != 1 {
			t.Fatalf("cost %d over %d entries after a straggler put, want 1 over 1", c.cost, c.ll.Len())
		}
		if _, ok := c.get(key(1, 5)); ok {
			t.Fatal("the straggler's epoch hit")
		}
		if resp, ok := c.get(key(2, 5)); !ok || resp != newer {
			t.Fatalf("epoch 2 lookup: hit=%v, want the newer answer", ok)
		}
		// A put at a newer epoch still replaces in place.
		c.put(key(3, 5), rowsResp(40))
		requireCacheBound(t, c)
		if c.cost != 3 || c.ll.Len() != 1 {
			t.Fatalf("cost %d over %d entries after a newer put, want 3 over 1", c.cost, c.ll.Len())
		}
	})

	t.Run("a retained entry stays in place", func(t *testing.T) {
		c := newResultCache(64, nil)
		c.putLive(key(1, 7), rowsResp(10), []graph.NodeID{3, 7, 9}, 0, false)
		before := c.m[key(1, 7).queryKey].Value.(*cacheEntry)
		if surgical, retained := c.invalidate(1, 2, []graph.NodeID{1, 8, 10}, 0); surgical != 0 || retained != 1 {
			t.Fatalf("surgical=%d retained=%d, want 0/1", surgical, retained)
		}
		after := c.m[key(2, 7).queryKey].Value.(*cacheEntry)
		if after != before || after.key.epoch != 2 {
			t.Fatalf("retained entry %p at epoch %d, want %p at epoch 2", after, after.key.epoch, before)
		}
		if _, ok := c.get(key(2, 7)); !ok {
			t.Fatal("retained entry misses at the new epoch")
		}
	})

	t.Run("k=10 evicts in plain LRU order", func(t *testing.T) {
		const max = 8
		c := newResultCache(max, nil)
		var lru []graph.NodeID // reference: an entry-counted LRU, most recent first
		touch := func(q graph.NodeID) {
			for i, v := range lru {
				if v == q {
					lru = append(lru[:i], lru[i+1:]...)
					break
				}
			}
			lru = append([]graph.NodeID{q}, lru...)
			lru = lru[:min(len(lru), max)]
		}
		for i := 0; i < 200; i++ {
			q := (i * 7) % 13
			if i%3 == 0 {
				if _, ok := c.get(key(1, q)); ok {
					touch(graph.NodeID(q))
				}
			} else {
				c.put(key(1, q), rowsResp(10))
				touch(graph.NodeID(q))
			}
			qs, _, _ := cacheState(c)
			if len(qs) != len(lru) {
				t.Fatalf("op %d: resident %v, entry-counted LRU holds %v", i, qs, lru)
			}
			for j := range qs {
				if qs[j] != lru[j] {
					t.Fatalf("op %d: resident %v, entry-counted LRU holds %v", i, qs, lru)
				}
			}
		}
	})
}

// TestIntersectsSortedMatchesMerge checks the binary-search intersection
// against a merge scan over random ascending lists, including empty ones,
// disjoint ranges and repeated elements.
func TestIntersectsSortedMatchesMerge(t *testing.T) {
	merge := func(a, b []graph.NodeID) bool {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(1))
	list := func(n, lo, span int) []graph.NodeID {
		l := make([]graph.NodeID, n)
		for i := range l {
			l[i] = graph.NodeID(lo + rng.Intn(span))
		}
		slices.Sort(l) // draws repeat, so lists hold duplicates
		return l
	}
	cases := [][2][]graph.NodeID{
		{nil, nil},
		{nil, {1, 2}},
		{{1, 2}, nil},
		{{1, 1, 1}, {1}},
		{{0, 1, 2}, {3, 4, 5}},
		{{3, 4, 5}, {0, 1, 2}},
	}
	for range 2000 {
		lo := rng.Intn(50)
		cases = append(cases, [2][]graph.NodeID{list(rng.Intn(6), 0, 60), list(rng.Intn(40), lo, 1+rng.Intn(60))})
	}
	for _, c := range cases {
		if got, want := intersectsSorted(c[0], c[1]), merge(c[0], c[1]); got != want {
			t.Fatalf("intersectsSorted(%v, %v) = %v, merge scan says %v", c[0], c[1], got, want)
		}
	}
}
