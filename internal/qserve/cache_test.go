package qserve

import (
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
	key := func(epoch uint64, q int) cacheKey { return cacheKey{epoch: epoch, q: graph.NodeID(q), k: 1} }

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
		c.putLive(key(1, 1), rowsResp(100), fp(1), 0, false) // disjoint: re-keyed
		c.putLive(key(1, 2), rowsResp(40), fp(2), 0, false)  // disjoint, but...
		c.putLive(key(2, 2), rowsResp(40), fp(2), 0, false)  // ...a raced-ahead twin holds the new key
		requireCacheBound(t, c)
		surgical, retained := c.invalidate(1, 2, fp(0), 0)
		if surgical != 2 || retained != 1 {
			t.Fatalf("surgical=%d retained=%d, want 2/1", surgical, retained)
		}
		requireCacheBound(t, c)
		if c.cost != 7+3 {
			t.Fatalf("cost %d after invalidation, want 10 (100 rows + 40 rows)", c.cost)
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
