package cachelens

import (
	"container/list"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// lruSim is a plain LRU cache simulator — the exact reference the sampled
// estimates are validated against. Deliberately independent of stackDist.
type lruSim struct {
	cap  int
	ll   *list.List
	pos  map[uint64]*list.Element
	hits int
	n    int
}

func newLRUSim(capacity int) *lruSim {
	return &lruSim{cap: capacity, ll: list.New(), pos: make(map[uint64]*list.Element)}
}

// access plays one key.
func (s *lruSim) access(key uint64) {
	s.n++
	if e, ok := s.pos[key]; ok {
		s.hits++
		s.ll.MoveToFront(e)
		return
	}
	if s.ll.Len() >= s.cap {
		back := s.ll.Back()
		delete(s.pos, back.Value.(uint64))
		s.ll.Remove(back)
	}
	s.pos[key] = s.ll.PushFront(key)
}

func (s *lruSim) hitRatio() float64 { return float64(s.hits) / float64(s.n) }

// zipfTrace generates a seeded Zipf access trace — the pinned synthetic
// workload of the MRC acceptance test. The v parameter flattens the head of
// the distribution: spatial sampling is accurate when no single key carries
// a macroscopic fraction of all accesses (DESIGN.md §15 discusses the
// hot-key concentration caveat), which also matches page-granularity access
// streams where each page aggregates many nodes.
func zipfTrace(seed int64, n int, keyspace uint64, skew, v float64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, skew, v, keyspace-1)
	trace := make([]uint64, n)
	for i := range trace {
		trace[i] = z.Uint64()
	}
	return trace
}

// TestMRCMatchesExactOnZipf is the acceptance-criterion test: play a pinned
// Zipf trace into the lens, simulate exact LRU at every MRC scale, and
// require the sampled curve within 0.05 absolute error per scale.
func TestMRCMatchesExactOnZipf(t *testing.T) {
	const (
		capacity = 2000
		n        = 1_000_000
		keyspace = 100_000
	)
	trace := zipfTrace(42, n, keyspace, 1.2, 256)

	lens := New(Config{Capacity: capacity, SampleRate: 64, Seed: 7})
	scales := DefaultScales
	exact := make([]*lruSim, len(scales))
	for i, s := range scales {
		exact[i] = newLRUSim(int(s * capacity))
	}

	for _, key := range trace {
		lens.RecordGet(key)
		for _, sim := range exact {
			sim.access(key)
		}
	}

	snap := lens.Snapshot()
	if snap.SampledAccesses < n/(64*2) {
		t.Fatalf("sampled only %d of %d accesses at rate 64", snap.SampledAccesses, n)
	}
	for i, p := range snap.Curve {
		want := exact[i].hitRatio()
		diff := p.EstHitRatio - want
		if diff < 0 {
			diff = -diff
		}
		t.Logf("scale %.2fx: exact %.4f sampled %.4f (|err| %.4f)", p.Scale, want, p.EstHitRatio, diff)
		if diff > 0.05 {
			t.Errorf("scale %.2fx: sampled hit ratio %.4f vs exact %.4f, |err| %.4f > 0.05",
				p.Scale, p.EstHitRatio, want, diff)
		}
	}
}

// TestSampleRateOneSeesEveryLookup: at SampleRate 1 every key is sampled,
// so the lens's sampled access count is the lookup count and its curve is
// exact LRU.
func TestSampleRateOneSeesEveryLookup(t *testing.T) {
	trace := zipfTrace(3, 20_000, 2_000, 1.1, 8)
	lens := New(Config{Capacity: 100, SampleRate: 1, Seed: 9})
	sim := newLRUSim(100)
	for _, key := range trace {
		lens.RecordGet(key)
		sim.access(key)
	}
	snap := lens.Snapshot()
	if snap.SampleRate != 1 || snap.SampledAccesses != int64(len(trace)) {
		t.Fatalf("rate %d sampled %d accesses, want rate 1 and %d", snap.SampleRate, snap.SampledAccesses, len(trace))
	}
	for _, p := range snap.Curve {
		if p.Scale == 1 && p.EstHitRatio != sim.hitRatio() {
			t.Fatalf("1x point %.6f, exact LRU %.6f", p.EstHitRatio, sim.hitRatio())
		}
	}
}

// TestMRCDeterministicUnderSeed replays the same trace into two identically
// seeded lenses and requires byte-identical analytics: the sampled subset is
// a pure function of (seed, key), so every estimate must be too.
func TestMRCDeterministicUnderSeed(t *testing.T) {
	trace := zipfTrace(99, 200_000, 50_000, 1.2, 64)
	run := func() Snapshot {
		lens := New(Config{Capacity: 500, SampleRate: 32, Seed: 1234})
		for _, key := range trace {
			lens.RecordGet(key)
		}
		return lens.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identically seeded lenses diverge:\n%+v\nvs\n%+v", a, b)
	}
	// A different seed samples a different subset: the curve may move a
	// little, but the sampled population itself must differ.
	lens := New(Config{Capacity: 500, SampleRate: 32, Seed: 4321})
	for _, key := range trace {
		lens.RecordGet(key)
	}
	if c := lens.Snapshot(); c.SampledAccesses == a.SampledAccesses {
		t.Logf("note: different seed sampled the same count (%d) — legal but unlikely", c.SampledAccesses)
	}
}

// TestMRCMonotone is the property test: under LRU's stack-inclusion
// property a bigger cache never hits less, so every estimated curve must be
// non-decreasing in scale — on any trace, any seed.
func TestMRCMonotone(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		lens := New(Config{Capacity: 100 + int(seed)*37, SampleRate: 8, Seed: uint64(seed)})
		for i := 0; i < 50_000; i++ {
			lens.RecordGet(uint64(r.Intn(2000)))
		}
		snap := lens.Snapshot()
		for i := 1; i < len(snap.Curve); i++ {
			if snap.Curve[i].EstHitRatio < snap.Curve[i-1].EstHitRatio {
				t.Fatalf("seed %d: curve not monotone: %.4f@%.2fx > %.4f@%.2fx",
					seed, snap.Curve[i-1].EstHitRatio, snap.Curve[i-1].Scale,
					snap.Curve[i].EstHitRatio, snap.Curve[i].Scale)
			}
		}
	}
}

// TestStackDistMatchesNaive validates the Fenwick structure against a naive
// move-to-front list on a trace long enough to exercise slot-space rebuilds
// and oldest-key eviction.
func TestStackDistMatchesNaive(t *testing.T) {
	const maxTracked = 64
	sd := newStackDist(maxTracked)
	var naive []uint64 // most recent first
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20_000; i++ {
		key := uint64(r.Intn(200))
		wantDist, wantCold := 0, true
		for j, k := range naive {
			if k == key {
				wantDist, wantCold = j+1, false
				naive = append(naive[:j], naive[j+1:]...)
				break
			}
		}
		naive = append([]uint64{key}, naive...)
		if len(naive) > maxTracked {
			naive = naive[:maxTracked]
		}
		gotDist, gotCold := sd.access(key)
		if gotCold != wantCold || gotDist != wantDist {
			t.Fatalf("access %d key %d: got (d=%d cold=%v), want (d=%d cold=%v)",
				i, key, gotDist, gotCold, wantDist, wantCold)
		}
	}
}

// TestSamplerRace stresses the lens with concurrent writers, snapshot
// readers, and epoch ticks — meaningful under -race (the CI Race step).
func TestSamplerRace(t *testing.T) {
	lens := New(Config{Capacity: 256, SampleRate: 4})
	var sampledKeys int64 // accesses the writers make to sampled keys
	for w := 0; w < 4; w++ {
		r := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 20_000; i++ {
			if mix64(uint64(r.Intn(512))^lens.cfg.Seed)&lens.mask == 0 {
				sampledKeys++
			}
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20_000; i++ {
				lens.RecordGet(uint64(r.Intn(512)))
			}
		}(w)
	}
	go func() {
		defer close(readerDone)
		now := time.Unix(0, 0)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			now = now.Add(time.Second)
			lens.Tick(now)
			snap := lens.Snapshot()
			if snap.SampledAccesses < last {
				t.Errorf("sampled accesses went back from %d to %d", last, snap.SampledAccesses)
				return
			}
			last = snap.SampledAccesses
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := lens.Snapshot().SampledAccesses; got != sampledKeys || got == 0 {
		t.Fatalf("sampled accesses = %d, want %d", got, sampledKeys)
	}
}

// TestWSSWindows checks window rollover: the published estimate is the
// scaled distinct count of the completed window.
func TestWSSWindows(t *testing.T) {
	lens := New(Config{Capacity: 64, SampleRate: 1, WindowShort: time.Minute, WindowLong: 10 * time.Minute})
	t0 := time.Unix(0, 0)
	lens.Tick(t0)
	for i := 0; i < 500; i++ {
		lens.RecordGet(uint64(i % 40)) // 40 distinct keys
	}
	snap := lens.Snapshot()
	if snap.WorkingSet[0].CurrentEst != 40 {
		t.Fatalf("short-window current estimate = %d, want 40", snap.WorkingSet[0].CurrentEst)
	}
	lens.Tick(t0.Add(61 * time.Second))
	snap = lens.Snapshot()
	if snap.WorkingSet[0].DistinctEst != 40 || snap.WorkingSet[0].Rollovers != 1 {
		t.Fatalf("short window after rollover = %+v, want est 40 rollovers 1", snap.WorkingSet[0])
	}
	if snap.WorkingSet[1].Rollovers != 0 {
		t.Fatalf("long window rolled early: %+v", snap.WorkingSet[1])
	}
	if snap.WorkingSet[0].CurrentEst != 0 {
		t.Fatalf("short window did not reset: %+v", snap.WorkingSet[0])
	}
}

// TestNilLensIsSafe pins the instrumentation contract: every method on a
// nil lens is a no-op, so callers guard with nothing but the nil receiver.
func TestNilLensIsSafe(t *testing.T) {
	var lens *Lens
	lens.RecordGet(1)
	lens.Tick(time.Now())
	lens.Close()
	if got := lens.Snapshot(); !reflect.DeepEqual(got, Snapshot{}) {
		t.Fatalf("nil snapshot = %+v", got)
	}
}

// TestSnapshotWireShape pins the JSON keys of a snapshot: the body of
// /debug/flos/cache carries the sampler's own counts, the curve and the
// working-set windows, and no hit/miss totals: those are the cache's.
func TestSnapshotWireShape(t *testing.T) {
	raw, err := json.Marshal(New(Config{Capacity: 16}).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(fields))
	for k := range fields {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"capacity", "miss_ratio_curve", "sample_rate", "sampled_accesses", "sampled_cold",
		"sampled_tracked", "ticks", "working_set"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot keys = %v, want %v", got, want)
	}
}

// TestAutoTick covers the background ticker path used by flosd.
func TestAutoTick(t *testing.T) {
	lens := New(Config{Capacity: 16, TickEvery: time.Millisecond})
	defer lens.Close()
	for i := 0; i < 100; i++ {
		lens.RecordGet(uint64(i))
	}
	deadline := time.Now().Add(2 * time.Second)
	for lens.Snapshot().Ticks < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background ticker never fired twice")
		}
		time.Sleep(5 * time.Millisecond)
	}
	lens.Close() // double Close must be safe
}
