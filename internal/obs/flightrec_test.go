package obs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"flos/internal/core"
)

func mkRecord(i int, lat time.Duration, visited int) *FlightRecord {
	return &FlightRecord{
		ID:        fmt.Sprintf("req-%04d", i),
		Start:     time.Unix(1700000000+int64(i), 0),
		Measure:   "php",
		Query:     int64(i),
		K:         10,
		Outcome:   "ok",
		LatencyUS: lat.Microseconds(),
		Visited:   visited,
	}
}

func TestFlightRecorderRingAndSlowPromotion(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{
		Size:        8,
		SlowLatency: 100 * time.Millisecond,
		SlowKeep:    4,
	})

	// 20 fast records wrap the size-8 ring.
	for i := 0; i < 20; i++ {
		r.Record(mkRecord(i, time.Millisecond, 10))
	}
	last := r.Last(0)
	if len(last) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(last))
	}
	for i, rec := range last {
		if want := int64(19 - i); rec.Query != want {
			t.Errorf("ring[%d].Query = %d, want %d (newest first)", i, rec.Query, want)
		}
	}
	if got := r.Last(3); len(got) != 3 || got[0].Query != 19 {
		t.Errorf("Last(3) = %d records starting at %v", len(got), got[0])
	}
	if r.Recorded() != 20 || r.SlowCount() != 0 {
		t.Errorf("recorded/slow = %d/%d, want 20/0", r.Recorded(), r.SlowCount())
	}
	if len(r.Slow()) != 0 {
		t.Errorf("slow log not empty: %v", r.Slow())
	}

	// Promotion by latency only: a large visited set is not slow.
	r.Record(mkRecord(100, 150*time.Millisecond, 10))
	r.Record(mkRecord(101, 100*time.Millisecond, 10)) // at the threshold
	r.Record(mkRecord(102, 99*time.Millisecond, 1<<30))
	slow := r.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow log = %d entries, want 2", len(slow))
	}
	if slow[0].Query != 101 || slow[1].Query != 100 {
		t.Errorf("slow log order = %d,%d, want 101,100 (newest first)", slow[0].Query, slow[1].Query)
	}
	for _, rec := range slow {
		if !rec.Slow {
			t.Errorf("promoted record %d not flagged Slow", rec.Query)
		}
	}
	if r.SlowCount() != 2 {
		t.Errorf("SlowCount = %d, want 2", r.SlowCount())
	}

	// The slow log is bounded at SlowKeep, retaining the most recent.
	for i := 0; i < 10; i++ {
		r.Record(mkRecord(200+i, time.Second, 10))
	}
	slow = r.Slow()
	if len(slow) != 4 {
		t.Fatalf("slow log = %d entries, want SlowKeep=4", len(slow))
	}
	if slow[0].Query != 209 || slow[3].Query != 206 {
		t.Errorf("slow log window = %d..%d, want 209..206", slow[0].Query, slow[3].Query)
	}
}

func TestFlightRecorderDisabledThresholds(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{SlowLatency: -1})
	r.Record(mkRecord(0, time.Hour, 1<<30))
	if len(r.Slow()) != 0 {
		t.Error("latency promotion disabled but record promoted")
	}
	if r.IsSlow(time.Hour) {
		t.Error("IsSlow with the threshold off")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Size: 32, SlowLatency: time.Millisecond, SlowKeep: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				lat := time.Microsecond
				if i%50 == 0 {
					lat = 2 * time.Millisecond
				}
				r.Record(mkRecord(w*1000+i, lat, 10))
			}
		}(w)
	}
	// Concurrent readers.
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Last(16)
				r.Slow()
			}
		}()
	}
	wg.Wait()
	if r.Recorded() != 4000 {
		t.Fatalf("recorded = %d, want 4000", r.Recorded())
	}
	if got := r.SlowCount(); got != 8*10 {
		t.Fatalf("slow count = %d, want 80", got)
	}
	if len(r.Last(0)) != 32 {
		t.Fatalf("ring size = %d, want 32", len(r.Last(0)))
	}
}

// TestFlightRecorderExemplars checks the per-bucket exemplar view: the
// newest executed record of each latency bucket wins, cache hits and shed
// requests never become exemplars, and a slow-log record keeps its bucket's
// exemplar after the ring has lapped it.
func TestFlightRecorderExemplars(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Size: 5, SlowLatency: 10 * time.Millisecond, SlowKeep: 4})
	rec := func(id, outcome string, lat time.Duration) {
		r.Record(&FlightRecord{ID: id, TraceID: "t-" + id, Outcome: outcome, LatencyUS: lat.Microseconds()})
	}
	rec("slow", "deadline", 50*time.Millisecond) // bucket 16, slow log only once lapped
	rec("a", "ok", 3*time.Microsecond)           // bucket 2
	rec("b", "ok", 800*time.Microsecond)         // bucket 10
	rec("c", "failed", 900*time.Microsecond)     // bucket 10 again: newer, replaces b
	rec("hit", "hit", 3*time.Microsecond)        // never an exemplar
	rec("shed", "shed", 700*time.Microsecond)    // never an exemplar

	want := []Exemplar{
		{BucketLEUS: 4, ID: "a", TraceID: "t-a", LatencyUS: 3},
		{BucketLEUS: 1024, ID: "c", TraceID: "t-c", LatencyUS: 900},
		{BucketLEUS: 65536, ID: "slow", TraceID: "t-slow", LatencyUS: 50000},
	}
	if got := r.Exemplars(); !reflect.DeepEqual(got, want) {
		t.Fatalf("exemplars = %+v, want %+v", got, want)
	}
	if got := NewFlightRecorder(RecorderConfig{}).Exemplars(); got != nil {
		t.Fatalf("empty recorder exemplars = %+v, want none", got)
	}
}

func TestTraceSamplerDownsamples(t *testing.T) {
	cases := []struct {
		total, max int
	}{
		{0, 8}, {1, 8}, {7, 8}, {8, 8}, {9, 8}, {100, 8}, {1000, 16}, {5, 2},
	}
	for _, tc := range cases {
		s := NewTraceSampler(tc.max)
		for i := 1; i <= tc.total; i++ {
			s.ObserveIteration(core.IterStats{Iteration: i, Visited: i * 3})
		}
		got := s.Snapshot()
		if s.Total() != tc.total {
			t.Errorf("total=%d max=%d: Total() = %d", tc.total, tc.max, s.Total())
		}
		if tc.total == 0 {
			if got != nil {
				t.Errorf("empty sampler snapshot = %v, want nil", got)
			}
			continue
		}
		max := tc.max
		if max < 2 {
			max = 2
		}
		if len(got) > max+1 {
			t.Errorf("total=%d max=%d: kept %d points, budget %d(+1 final)", tc.total, tc.max, len(got), max)
		}
		if got[0].Iteration != 1 {
			t.Errorf("total=%d: first sampled iteration = %d, want 1", tc.total, got[0].Iteration)
		}
		if got[len(got)-1].Iteration != tc.total {
			t.Errorf("total=%d: last sampled iteration = %d, want %d (final entry must survive)",
				tc.total, got[len(got)-1].Iteration, tc.total)
		}
		if tc.total <= max && len(got) != tc.total {
			t.Errorf("total=%d fits budget %d but kept %d", tc.total, max, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Iteration <= got[i-1].Iteration {
				t.Fatalf("total=%d: sampled iterations not increasing: %d after %d",
					tc.total, got[i].Iteration, got[i-1].Iteration)
			}
		}
	}
}

func TestTraceSamplerReset(t *testing.T) {
	s := NewTraceSampler(4)
	for i := 1; i <= 100; i++ {
		s.ObserveIteration(core.IterStats{Iteration: i})
	}
	s.Reset()
	if s.Total() != 0 || s.Snapshot() != nil {
		t.Fatalf("reset sampler total=%d snapshot=%v", s.Total(), s.Snapshot())
	}
	for i := 1; i <= 3; i++ {
		s.ObserveIteration(core.IterStats{Iteration: i})
	}
	got := s.Snapshot()
	if len(got) != 3 || got[0].Iteration != 1 || got[2].Iteration != 3 {
		t.Fatalf("post-reset snapshot = %+v", got)
	}
}
