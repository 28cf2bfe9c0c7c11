// Package obs holds the observability primitives shared by the serving
// stack: a lock-free log-bucketed latency histogram, a Prometheus
// text-exposition writer, request-ID generation, log-level parsing, and the
// production diagnostics plane — a query flight recorder with a slow-query
// log (and the latency exemplars read from both) and a multi-window SLO
// burn-rate tracker.
//
// Nothing here imports a metrics client library: the package serves the
// Prometheus text format with its own writer, so the serving stack has no
// external observability dependencies.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// numBuckets is the bucket count of Histogram. Bucket i holds observations
// in (bucketBound(i-1), bucketBound(i)] microseconds, with bound doubling
// from 1µs; 28 buckets reach ~134s, far past any query deadline. Overflow
// lands in the last bucket.
const numBuckets = 28

// bucketBound returns the inclusive upper bound of bucket i in microseconds.
func bucketBound(i int) int64 { return 1 << uint(i) }

// Histogram is a fixed-shape, log-bucketed latency histogram safe for
// concurrent Observe and Snapshot: counts are independent atomics, so a
// snapshot is per-bucket consistent (each bucket value is exact at some
// instant) without any lock on the hot path.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := max(d.Microseconds(), 0)
	h.buckets[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// bucketIndex returns the bucket holding an observation of us microseconds:
// the smallest i with us <= 2^i, capped at the overflow bucket.
func bucketIndex(us int64) int {
	for i := 0; i < numBuckets-1; i++ {
		if us <= bucketBound(i) {
			return i
		}
	}
	return numBuckets - 1
}

// Snapshot is a point-in-time copy of a Histogram, the unit the JSON and
// Prometheus exporters consume.
type Snapshot struct {
	// Counts[i] is the observation count of bucket i (upper bound 2^i µs).
	Counts [numBuckets]int64
	// Count and SumUS are the total observation count and latency sum.
	Count int64
	SumUS int64
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumUS = h.sumUS.Load()
	return s
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// QuantileUS returns a conservative estimate of the p-quantile (0 <= p <= 1)
// in microseconds: the upper bound of the bucket containing the observation
// at rank ceil(p·(n−1))+1. Rounding the rank index up and reporting the
// bucket's upper edge biases tail quantiles high, never low — the safe
// direction for alerting (the old sort-based estimator truncated the index
// to int(p·(n−1)), which under-reported p99 on small windows).
//
// The extremes are pinned rather than estimated: an empty histogram (and a
// NaN p) reports 0, and p = 0 reports the minimum nonempty bucket's *lower*
// bound — the round-up rule would overstate the observed minimum, the one
// quantile where biasing high is the unsafe direction.
func (s Snapshot) QuantileUS(p float64) int64 {
	if s.Count == 0 || math.IsNaN(p) {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	if p == 0 {
		for i, c := range s.Counts {
			if c > 0 {
				if i == 0 {
					return 0
				}
				return bucketBound(i - 1)
			}
		}
		return 0 // unreachable: Count > 0 implies a nonempty bucket
	}
	rank := int64(math.Ceil(p*float64(s.Count-1))) + 1
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			return bucketBound(i)
		}
	}
	return bucketBound(numBuckets - 1)
}
