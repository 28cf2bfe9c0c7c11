package diskgraph

import (
	"sync"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/obs/cachelens"
)

// TestConcurrentReaders drives many Reader views over one store at once —
// with a budget that pins a few hub rows, so readers race to fill the same
// slots while most rows come from the file — and checks every read against
// the in-memory truth. Run under -race this exercises the pinned rows'
// fill protocol: a reader that served a slot before its fill was published
// would see zeros or another row's bytes. Reader 0 reads every row, so at
// the end every pinned row is filled, once. The subtest names date from
// the page cache this test once covered; they stand for budgets of 8 KiB
// and 2 KiB over a store of 1 KiB pages.
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

			var wg sync.WaitGroup
			errs := make(chan string, tc.readers)
			for w := 0; w < tc.readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := s.NewReader()
					// Stride differently per reader so first reads of one row collide.
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
			close(errs)
			for msg := range errs {
				t.Fatal(msg)
			}
			st := s.CacheStats()
			if st.Hits+st.Misses == 0 {
				t.Fatal("the store counted no row reads")
			}
			if lookups, sampled := st.Hits+st.Misses, lens.Snapshot().SampledAccesses; sampled != lookups {
				t.Errorf("lens sampled %d accesses, the store counted %d lookups", sampled, lookups)
			}
			if st.ResidentBytes > tc.budget || st.PinnedRows == 0 || st.PinnedRows != len(s.pin.state) {
				t.Errorf("%d pinned rows filled of %d slots, %d bytes, budget %d", st.PinnedRows, len(s.pin.state), st.ResidentBytes, tc.budget)
			}
			t.Logf("rows: %d pinned hits, %d file reads, %d pinned rows filled", st.Hits, st.Misses, st.PinnedRows)
		})
	}
}
