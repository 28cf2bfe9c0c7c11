package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: below that the value is set by a handful of requests and does not
// repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted and
// the number of samples strictly beyond it. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return sorted[idx], len(sorted) - 1 - idx
}

// tailCandidates are the percentiles a tail metric may be pinned to, highest
// first.
var tailCandidates = []float64{0.99, 0.95, 0.90}

// highestTail returns the highest of p99/p95/p90 that n samples support with
// at least minBeyond samples beyond it, or 0 when even p90 is unsupported.
// Workloads pin their tail percentile (spec.tailPct) so the metric means the
// same thing on every run; this helper is what the pin is checked against.
func highestTail(n int) float64 {
	for _, p := range tailCandidates {
		if n-int(math.Ceil(p*float64(n))) >= minBeyond {
			return p
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for even n);
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance check computes; it needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(j int) float64 { // j-th of 4 cut points
		pos := float64(j*(n+1)) / 4
		lo := int(math.Floor(pos))
		lo = max(1, min(lo, n-1))
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of one metric: the interquartile distance
// as a share of the median. With fewer than four values it falls back to the
// full range over the median, which overstates rather than hides noise.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := sortedCopy(xs)
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
