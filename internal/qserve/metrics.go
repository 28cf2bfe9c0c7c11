package qserve

import (
	"sync/atomic"

	"flos/internal/obs"
)

// measureLabels are the latency-histogram labels, indexed by measure.Kind
// (PHP..RWR) with one extra slot for unified queries. Prometheus and the
// JSON snapshot both key by these strings.
var measureLabels = [...]string{"php", "ei", "dht", "tht", "rwr", "unified"}

// unifiedSlot is the histogram slot of unified (two-family) queries.
const unifiedSlot = len(measureLabels) - 1

// metricsSlot maps a request onto its per-measure histogram slot.
func metricsSlot(req Request) int {
	if req.Unified {
		return unifiedSlot
	}
	if k := int(req.Opt.Measure); k >= 0 && k < unifiedSlot {
		return k
	}
	return unifiedSlot // unknown kinds share the last slot rather than panic
}

// metrics is the pool's internal counter set. Counters are independent
// atomics and the latency histograms are lock-free (obs.Histogram), so the
// hot path never takes a lock — the old implementation sorted a 2048-entry
// ring under a mutex on every snapshot and its truncating percentile index
// under-reported p99 on small windows.
type metrics struct {
	shed atomic.Int64

	// Outcome split of served queries: ok counts executed successes, hit
	// result-cache answers, failed non-context errors. Served and
	// Interrupted are sums taken in snapshot, so ok + hit + deadline +
	// canceled + failed == served holds by construction.
	ok       atomic.Int64
	hit      atomic.Int64
	deadline atomic.Int64
	canceled atomic.Int64
	failed   atomic.Int64

	// anytimePartial counts anytime-mode queries whose deadline fired
	// mid-search: they completed as "ok" (200 with a certification block)
	// but returned an uncertified partial top-k. A subset of ok, tracked
	// separately so operators can see how often deadlines actually bind.
	anytimePartial atomic.Int64

	// hitByMeasure mirrors the per-measure latency histograms for cache
	// hits, which never enter those histograms: per measure, executed count
	// (latByMeasure[i].Count()) + hitByMeasure[i] covers every served query.
	hitByMeasure [len(measureLabels)]atomic.Int64

	// Work totals accumulated from completed and interrupted searches.
	iterations atomic.Int64
	visited    atomic.Int64
	sweeps     atomic.Int64

	// Invalidation split. invalSurgical counts entries individually evicted
	// because a mutation batch touched their read footprint; retained counts
	// entries a batch carried forward untouched.
	invalSurgical atomic.Int64
	retained      atomic.Int64

	// Last-batch gauges (stored, not accumulated): how the most recent
	// mutation batch split the cache into surgically evicted entries and
	// survivors. The cumulative counters above tell you how much
	// invalidation has happened; these tell you what the last batch did —
	// the steady-state "survivors per epoch" view.
	lastBatchSurgical atomic.Int64
	lastBatchRetained atomic.Int64

	latByMeasure [len(measureLabels)]obs.Histogram // executed (non-cache-hit) queries
}

func (m *metrics) snapshot() Metrics {
	out := Metrics{
		Shed:                  m.shed.Load(),
		OK:                    m.ok.Load(),
		Hit:                   m.hit.Load(),
		Deadline:              m.deadline.Load(),
		Canceled:              m.canceled.Load(),
		Failed:                m.failed.Load(),
		AnytimePartial:        m.anytimePartial.Load(),
		IterationsTotal:       m.iterations.Load(),
		VisitedTotal:          m.visited.Load(),
		SweepsTotal:           m.sweeps.Load(),
		InvalidationsSurgical: m.invalSurgical.Load(),
		CacheRetained:         m.retained.Load(),
		LastBatchSurgical:     m.lastBatchSurgical.Load(),
		LastBatchRetained:     m.lastBatchRetained.Load(),
		LatencyByMeasure:      make(map[string]obs.Snapshot),
	}
	out.Interrupted = out.Deadline + out.Canceled
	out.Served = out.OK + out.Hit + out.Interrupted + out.Failed
	for i := range m.latByMeasure {
		if s := m.latByMeasure[i].Snapshot(); s.Count > 0 {
			out.LatencyByMeasure[measureLabels[i]] = s
		}
		if h := m.hitByMeasure[i].Load(); h > 0 {
			if out.HitByMeasure == nil {
				out.HitByMeasure = make(map[string]int64)
			}
			out.HitByMeasure[measureLabels[i]] = h
		}
	}
	return out
}

// Metrics is a point-in-time snapshot of pool behavior, the source for the
// server's /metrics endpoint (both the Prometheus and JSON forms).
type Metrics struct {
	// Served counts queries answered (including cache hits and queries that
	// ended in cancellation); Shed counts admissions refused with
	// ErrOverloaded; Interrupted counts queries ended by context.
	Served, Shed, Interrupted int64
	// OK counts executed successes and Hit result-cache answers; with the
	// interrupted/failed counters below they partition Served exactly:
	// OK + Hit + Deadline + Canceled + Failed == Served.
	OK, Hit int64
	// Deadline and Canceled split Interrupted by cause; Failed counts
	// queries that ended in a non-context error.
	Deadline, Canceled, Failed int64
	// AnytimePartial counts anytime-mode queries whose deadline fired
	// mid-search and returned an uncertified partial top-k. These are
	// successes (a subset of OK), not interruptions, exported so operators
	// can see how often deadlines actually bind.
	AnytimePartial int64
	// HitByMeasure splits Hit by measure label (cache hits never enter
	// LatencyByMeasure, so per-measure served = histogram count + this);
	// labels with no hits are omitted and the map is nil when empty.
	HitByMeasure map[string]int64
	// IterationsTotal / VisitedTotal / SweepsTotal accumulate the engine
	// work counters over every executed search, interrupted ones included —
	// visited-per-query is the paper's locality metric, so the ratio
	// VisitedTotal/Served tracks how local production traffic actually is.
	IterationsTotal, VisitedTotal, SweepsTotal int64
	// LatencyByMeasure holds the log-bucketed latency histograms of
	// executed (non-cache-hit) queries per measure label ("php", "ei",
	// "dht", "tht", "rwr", "unified"), omitting labels with no observations.
	LatencyByMeasure map[string]obs.Snapshot
	// QueueDepth is the current number of queries waiting for a slot;
	// QueueCap its bound; Workers the slot count (1 on a backend without
	// graph.Viewer).
	QueueDepth, QueueCap, Workers int
	// Cache counters; zero when the cache is disabled. CacheEntries is the
	// live entry count (occupancy) and CacheCapacity its configured bound,
	// so CacheEntries/CacheCapacity is the steady-state fill ratio while
	// answers hold at most 16 rows (a larger one fills several entries'
	// worth of the bound).
	CacheHits, CacheMisses, CacheEvictions int64
	CacheEntries, CacheCapacity            int
	// Epoch is the current invalidation epoch. On a live pool it mirrors the
	// current snapshot's epoch.
	Epoch uint64
	// Invalidation split. InvalidationsSurgical counts entries individually
	// invalidated because a mutation batch intersected their read footprint;
	// CacheRetained counts entries carried forward across a batch untouched.
	InvalidationsSurgical int64
	CacheRetained         int64
	// LastBatchSurgical / LastBatchRetained are gauges describing only the
	// most recent mutation batch: entries it evicted surgically and entries
	// it carried forward (the per-epoch survivor count).
	LastBatchSurgical, LastBatchRetained int64
	// Live-graph gauges, zero on non-live pools: snapshots currently
	// referenced, snapshots ever published, adjacency rows copy-on-write
	// re-materialized, and edge ops applied.
	SnapshotsAlive, SnapshotsTotal int64
	RowsCoWed, OpsApplied          int64
}

// CacheHitRatio returns hits/(hits+misses), 0 when no lookups happened.
func (m Metrics) CacheHitRatio() float64 {
	tot := m.CacheHits + m.CacheMisses
	if tot == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(tot)
}
