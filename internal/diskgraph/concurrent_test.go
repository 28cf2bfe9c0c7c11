package diskgraph

import (
	"runtime"
	"sync"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
)

// TestConcurrentReaders drives many Reader views over one store at once —
// with a cache budget small enough to force constant eviction and refault —
// and checks every read against the in-memory truth. Run under -race this
// exercises the sharded page cache's locking, the fault dedup and the reuse
// of evicted pages' buffers: a reader that copied from a recycled buffer
// would see another page's bytes. The second input has more readers than
// the cache has frames, so faults overlap within a shard, allocate past the
// budget and are shed again.
func TestConcurrentReaders(t *testing.T) {
	g, err := gen.RMAT(3000, 12000, gen.DefaultRMAT(), 42)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 1024
	path := writeStore(t, g, pageSize)
	for _, tc := range []struct {
		name    string
		budget  int64
		readers int
	}{
		{"8 shards of one page, 8 readers", 8 << 10, 8},
		{"2 shards of one page, 4 readers", 2 << 10, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(path, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// The budget bounds page buffers at every instant, not just at rest.
			limit := tc.budget + int64(tc.readers)*pageSize
			stop := make(chan struct{})
			sampled := make(chan int64)
			go func() {
				var peak int64
				for {
					select {
					case <-stop:
						sampled <- peak
						return
					default:
						if b := s.cache.ownedBytes(); b > peak {
							peak = b
						}
						runtime.Gosched()
					}
				}
			}()

			var wg sync.WaitGroup
			errs := make(chan string, tc.readers)
			for w := 0; w < tc.readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := s.NewReader()
					// Stride differently per reader so shard access interleaves.
					for off := 0; off < g.NumNodes(); off++ {
						v := graph.NodeID((off*(w+1) + w*131) % g.NumNodes())
						wantN, wantW := g.Neighbors(v)
						gotN, gotW := r.Neighbors(v)
						if len(gotN) != len(wantN) {
							errs <- "wrong neighbor count"
							return
						}
						for i := range wantN {
							if gotN[i] != wantN[i] || gotW[i] != wantW[i] {
								errs <- "neighbor data mismatch"
								return
							}
						}
						if r.Degree(v) != g.Degree(v) {
							errs <- "degree mismatch"
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			if peak := <-sampled; peak > limit {
				t.Errorf("cache owned %d bytes of page buffers at once; budget %d + one page per reader = %d",
					peak, tc.budget, limit)
			}
			close(errs)
			for msg := range errs {
				t.Fatal(msg)
			}
			st := s.CacheStats()
			if st.Hits+st.Misses == 0 {
				t.Fatal("cache recorded no traffic")
			}
			if st.ResidentBytes > tc.budget || s.cache.ownedBytes() > tc.budget {
				t.Errorf("at rest: %d resident bytes, %d owned, budget %d", st.ResidentBytes, s.cache.ownedBytes(), tc.budget)
			}
			t.Logf("cache: %d hits, %d misses, %d deduped, %d evictions, %d shards, %d resident",
				st.Hits, st.Misses, st.FaultsDeduped, st.Evictions, st.Shards, st.ResidentBytes)
		})
	}
}

// TestShardStatsUnderConcurrentReaders drives concurrent readers and checks
// the per-shard counters: they move, they stay consistent with the
// aggregate Stats, and every fault is accounted to exactly one stripe.
func TestShardStatsUnderConcurrentReaders(t *testing.T) {
	g, err := gen.RMAT(3000, 12000, gen.DefaultRMAT(), 42)
	if err != nil {
		t.Fatal(err)
	}
	path := writeStore(t, g, 1024)
	s, err := Open(path, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := s.NewReader()
			for off := 0; off < g.NumNodes(); off++ {
				v := graph.NodeID((off*(w+1) + w*131) % g.NumNodes())
				r.Neighbors(v)
			}
		}(w)
	}
	wg.Wait()

	agg := s.CacheStats()
	shards := s.ShardStats()
	if len(shards) != agg.Shards {
		t.Fatalf("ShardStats returned %d entries, aggregate says %d shards", len(shards), agg.Shards)
	}
	var hits, misses, dedups, bytes int64
	var pages, moved int
	for i, ss := range shards {
		if ss.Shard != i {
			t.Errorf("entry %d labeled shard %d", i, ss.Shard)
		}
		if ss.Hits > 0 || ss.Misses > 0 {
			moved++
		}
		hits += ss.Hits
		misses += ss.Misses
		dedups += ss.FaultsDeduped
		bytes += ss.ResidentBytes
		pages += ss.ResidentPages
	}
	if moved < 2 {
		t.Errorf("only %d of %d shards saw traffic under concurrent readers", moved, len(shards))
	}
	if hits != agg.Hits || misses != agg.Misses || dedups != agg.FaultsDeduped {
		t.Errorf("shard sums (h=%d m=%d d=%d) != aggregate (h=%d m=%d d=%d)",
			hits, misses, dedups, agg.Hits, agg.Misses, agg.FaultsDeduped)
	}
	if bytes != agg.ResidentBytes || pages != agg.ResidentPages {
		t.Errorf("shard residency (%dB/%dp) != aggregate (%dB/%dp)",
			bytes, pages, agg.ResidentBytes, agg.ResidentPages)
	}
	if misses == 0 {
		t.Error("no faults recorded at all")
	}
}
