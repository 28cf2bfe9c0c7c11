package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 99 fast observations and 1 slow one: the old truncating estimator
	// reported p99 from the fast mass; the round-up rule must land on the
	// slow observation's bucket.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if got := s.QuantileUS(0.50); got < 100 || got > 256 {
		t.Errorf("p50 = %dus, want the ~100us bucket bound", got)
	}
	p99 := s.QuantileUS(0.99)
	if p99 < 50_000 {
		t.Errorf("p99 = %dus, want >= 50ms (round-up must reach the slow observation)", p99)
	}
	// Quantile estimates are conservative: never below the true value's
	// bucket lower bound, here trivially monotone in p.
	if s.QuantileUS(1.0) < p99 {
		t.Errorf("p100 %d < p99 %d", s.QuantileUS(1.0), p99)
	}
	if s.SumUS != 99*100+50_000 {
		t.Errorf("sum = %dus", s.SumUS)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().QuantileUS(0.99); got != 0 {
		t.Errorf("empty p99 = %d, want 0", got)
	}
	h.Observe(1000 * time.Hour) // far past the last bound: overflow bucket
	s := h.Snapshot()
	if s.Counts[numBuckets-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Counts[numBuckets-1])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const per = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8*per {
		t.Fatalf("count = %d, want %d", s.Count, 8*per)
	}
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

func TestPromWriterFormat(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(70 * time.Millisecond)

	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("flos_queries_served_total", "Queries answered.", nil, 42)
	p.Counter("flos_outcomes_total", "Outcomes.", map[string]string{"outcome": "ok"}, 40)
	p.Counter("flos_outcomes_total", "Outcomes.", map[string]string{"outcome": "deadline"}, 2)
	p.Gauge("go_goroutines", "Goroutines.", nil, 12)
	p.Histogram("flos_query_latency_seconds", "Latency.", map[string]string{"measure": "php"}, h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP flos_queries_served_total Queries answered.",
		"# TYPE flos_queries_served_total counter",
		"flos_queries_served_total 42",
		`flos_outcomes_total{outcome="ok"} 40`,
		`flos_outcomes_total{outcome="deadline"} 2`,
		"# TYPE go_goroutines gauge",
		"# TYPE flos_query_latency_seconds histogram",
		`flos_query_latency_seconds_bucket{le="+Inf",measure="php"} 2`,
		`flos_query_latency_seconds_count{measure="php"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// HELP/TYPE headers appear exactly once per family.
	if n := strings.Count(out, "# TYPE flos_outcomes_total counter"); n != 1 {
		t.Errorf("TYPE header written %d times, want 1", n)
	}
	// Cumulative buckets: every _bucket line's value is non-decreasing.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "flos_query_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = v
	}
}

// TestQuantileExtremes pins the estimator's edge behavior: an empty
// histogram (and a NaN p) reports 0, and p = 0 reports the minimum nonempty
// bucket's lower bound — the one quantile where the round-up rule's
// bias-high direction is unsafe.
func TestQuantileExtremes(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{0, 0.5, 0.99, 1, math.NaN(), -1, 2} {
		if got := empty.Snapshot().QuantileUS(p); got != 0 {
			t.Errorf("empty QuantileUS(%v) = %d, want 0", p, got)
		}
	}

	cases := []struct {
		name    string
		observe []time.Duration
		p       float64
		want    int64
	}{
		// All mass in bucket 10 ((512,1024]us): the minimum is that
		// bucket's lower bound, not its upper bound.
		{"p0 lower bound", []time.Duration{800 * time.Microsecond, 900 * time.Microsecond}, 0, 512},
		// Mass in bucket 0: the lower bound of the first bucket is 0.
		{"p0 bucket zero", []time.Duration{time.Microsecond}, 0, 0},
		// Minimum is taken over the lowest nonempty bucket even when the
		// mass is mostly elsewhere.
		{"p0 mixed", []time.Duration{3 * time.Microsecond, time.Second, time.Second}, 0, 2},
		// p=1 still reports the top bucket's upper bound (round-up rule).
		{"p1 upper bound", []time.Duration{3 * time.Microsecond, 800 * time.Microsecond}, 1, 1024},
		// Out-of-range p clamps.
		{"p<0 clamps to min", []time.Duration{800 * time.Microsecond}, -3, 512},
		{"p>1 clamps to max", []time.Duration{800 * time.Microsecond}, 7, 1024},
		// NaN on a populated histogram reports 0 rather than garbage.
		{"NaN", []time.Duration{800 * time.Microsecond}, math.NaN(), 0},
	}
	for _, tc := range cases {
		var h Histogram
		for _, d := range tc.observe {
			h.Observe(d)
		}
		if got := h.Snapshot().QuantileUS(tc.p); got != tc.want {
			t.Errorf("%s: QuantileUS(%v) = %d, want %d", tc.name, tc.p, got, tc.want)
		}
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
}
