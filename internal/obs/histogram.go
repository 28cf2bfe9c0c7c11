// Package obs holds the observability primitives shared by the serving
// stack: a lock-free log-bucketed latency histogram with per-bucket
// exemplars, a Prometheus text-exposition writer, request-ID generation,
// log-level parsing, and the production diagnostics plane — a query flight
// recorder with a slow-query log and a multi-window SLO burn-rate tracker.
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

// Exemplar ties a histogram bucket back to one concrete request: the ID,
// trace ID, and exact latency of the bucket's most recent sample. Joining a
// tail bucket's exemplar against the flight recorder, slow-query log, or
// span store turns "the p99 is high" into "this query made the p99 high" —
// and, via the trace ID, into that query's full span tree.
type Exemplar struct {
	// ID is the request ID of the sample (empty when the bucket has never
	// seen an exemplar-carrying observation).
	ID string `json:"id"`
	// TraceID is the sample's hex trace ID, joinable against
	// /debug/flos/traces; empty when the request was untraced.
	TraceID string `json:"trace_id,omitempty"`
	// LatencyUS is that sample's exact latency in microseconds.
	LatencyUS int64 `json:"latency_us"`
}

// Histogram is a fixed-shape, log-bucketed latency histogram safe for
// concurrent Observe and Snapshot: counts are independent atomics, so a
// snapshot is per-bucket consistent (each bucket value is exact at some
// instant) without any lock on the hot path. Each bucket additionally
// remembers its most recent exemplar (one atomic pointer store when the
// observation carries a request ID).
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64

	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Observe records one duration without an exemplar.
func (h *Histogram) Observe(d time.Duration) { h.ObserveExemplar(d, "", "") }

// ObserveExemplar records one duration and, when id is non-empty, installs
// it (with the request's trace ID, possibly empty) as the bucket's exemplar
// (last writer wins — "most recent sample" is best-effort under concurrency,
// which is all an exemplar needs to be).
func (h *Histogram) ObserveExemplar(d time.Duration, id, traceID string) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bucketIndex(us)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	if id != "" {
		h.exemplars[i].Store(&Exemplar{ID: id, TraceID: traceID, LatencyUS: us})
	}
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
	// Counts[i] is the observation count of bucket i (bounds per BucketBoundsUS).
	Counts [numBuckets]int64
	// Count and SumUS are the total observation count and latency sum.
	Count int64
	SumUS int64
	// Exemplars[i] is bucket i's most recent exemplar, nil when the bucket
	// has never seen one.
	Exemplars [numBuckets]*Exemplar
}

// Snapshot copies the current bucket counts and exemplars.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	s.Count = h.count.Load()
	s.SumUS = h.sumUS.Load()
	return s
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// BucketBoundsUS returns the inclusive per-bucket upper bounds in
// microseconds; the last entry is the overflow bucket (+Inf in exposition).
func BucketBoundsUS() []int64 {
	out := make([]int64, numBuckets)
	for i := range out {
		out[i] = bucketBound(i)
	}
	return out
}

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
