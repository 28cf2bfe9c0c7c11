package diskgraph

import (
	"runtime"
	"sync"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/obs/cachelens"
)

// TestConcurrentReaders drives many Reader views over one store at once —
// with a cache budget small enough to force constant eviction and refault —
// and checks every read against the in-memory truth. Run under -race this
// exercises the sharded page cache's locking and the reuse of evicted
// pages' buffers: a reader that copied from a recycled buffer would see
// another page's bytes. The second input has more readers than the cache
// has frames, so lookups of one shard queue on its lock while it reads.
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
			lens := s.AttachLens(cachelens.Config{SampleRate: 1})

			// The budget bounds page buffers at every instant, not just at rest.
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
			if peak := <-sampled; peak > tc.budget {
				t.Errorf("cache owned %d bytes of page buffers at once; budget %d", peak, tc.budget)
			}
			close(errs)
			for msg := range errs {
				t.Fatal(msg)
			}
			st := s.CacheStats()
			if st.Hits+st.Misses == 0 {
				t.Fatal("cache recorded no traffic")
			}
			if lookups, sampled := st.Hits+st.Misses, lens.Snapshot().SampledAccesses; sampled != lookups {
				t.Errorf("lens sampled %d accesses, shards counted %d lookups", sampled, lookups)
			}
			if st.ResidentBytes > tc.budget || s.cache.ownedBytes() > tc.budget {
				t.Errorf("at rest: %d resident bytes, %d owned, budget %d", st.ResidentBytes, s.cache.ownedBytes(), tc.budget)
			}
			t.Logf("cache: %d hits, %d misses, %d evictions, %d resident",
				st.Hits, st.Misses, st.Evictions, st.ResidentBytes)
		})
	}
}
