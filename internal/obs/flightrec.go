package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"flos/internal/core"
	"flos/internal/measure"
)

// RecorderConfig tunes a FlightRecorder. The zero value selects defaults.
type RecorderConfig struct {
	// Size is the ring capacity — the last Size completed queries are
	// retained; 0 selects 256.
	Size int
	// SlowLatency promotes any query at or over this latency into the
	// slow-query log; 0 selects 250ms, negative disables promotion.
	SlowLatency time.Duration
	// SlowKeep bounds the slow-query log; 0 selects 64.
	SlowKeep int
}

// TracePoints bounds the down-sampled trajectory kept per record.
const TracePoints = 48

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Size <= 0 {
		c.Size = 256
	}
	if c.SlowLatency == 0 {
		c.SlowLatency = 250 * time.Millisecond
	}
	if c.SlowKeep <= 0 {
		c.SlowKeep = 64
	}
	return c
}

// FlightRecord is one completed query's diagnostic record: identity, work
// counters, outcome, and a down-sampled convergence trajectory. Records are
// immutable once handed to the recorder.
type FlightRecord struct {
	// ID is the request ID — the join key against latency exemplars and
	// access logs.
	ID string `json:"id"`
	// TraceID is the request's hex trace ID when span tracing was on — the
	// join key against /debug/flos/traces and exemplar trace IDs.
	TraceID string `json:"trace_id,omitempty"`
	// Start is when execution (or the cache lookup) began.
	Start time.Time `json:"start"`
	// Measure is the histogram label ("php".."rwr", "unified").
	Measure string `json:"measure"`
	// Query and K identify the request.
	Query int64 `json:"query"`
	K     int   `json:"k"`
	// Unified marks two-family queries.
	Unified bool `json:"unified,omitempty"`
	// Outcome is "ok", "hit" (result cache), "shed", "deadline",
	// "canceled", or "failed".
	Outcome string `json:"outcome"`
	// LatencyUS is the query's wall-clock latency in microseconds.
	LatencyUS int64 `json:"latency_us"`
	// Iterations/Visited/Sweeps are the engine work counters (partial
	// counts for interrupted queries, zero for cache hits and shed
	// requests).
	Iterations int `json:"iterations"`
	Visited    int `json:"visited"`
	Sweeps     int `json:"sweeps"`
	// Exact reports the engine's exactness certificate.
	Exact bool `json:"exact,omitempty"`
	// Epoch is the graph epoch (live-pool snapshot epoch) the query ran
	// against; offline replay compares it with the replay graph's epoch to
	// flag cross-epoch staleness instead of silently replaying on a
	// different topology.
	Epoch uint64 `json:"epoch,omitempty"`
	// Slow marks records promoted into the slow-query log.
	Slow bool `json:"slow,omitempty"`
	// Trace is the down-sampled IterStats trajectory; TraceTotal is the
	// full iteration count before down-sampling (Trace covers everything
	// when TraceTotal == len(Trace)).
	TraceTotal int              `json:"trace_total,omitempty"`
	Trace      []core.IterStats `json:"trace,omitempty"`
	// PartialTopK is the in-flight top-k an interrupted query (outcome
	// "deadline" or "canceled") was holding when its context fired — the
	// same partial an anytime-mode request would have been answered with.
	// Offline replay renders it so a killed production query still shows
	// what it had found. Empty for completed queries and for interruptions
	// that preceded the first solver iteration.
	PartialTopK []measure.Ranked `json:"partial_topk,omitempty"`
}

// FlightRecorder retains the last N completed queries in a fixed-size
// lock-free ring and promotes outliers into a bounded slow-query log. The
// record path is one atomic add plus one atomic pointer store (plus a short
// mutexed append for the rare promoted record), so it is cheap enough to
// leave always-on in production.
type FlightRecorder struct {
	cfg RecorderConfig

	seq  atomic.Uint64
	ring []atomic.Pointer[FlightRecord]

	slowMu    sync.Mutex
	slow      []*FlightRecord // ring: slowSeq % SlowKeep
	slowSeq   uint64
	slowTotal atomic.Uint64
}

// NewFlightRecorder builds a recorder with cfg (zero value = defaults).
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{
		cfg:  cfg,
		ring: make([]atomic.Pointer[FlightRecord], cfg.Size),
		slow: make([]*FlightRecord, cfg.SlowKeep),
	}
}

// IsSlow reports whether a query with this latency meets the promotion
// threshold.
func (r *FlightRecorder) IsSlow(latency time.Duration) bool {
	return r.cfg.SlowLatency > 0 && latency >= r.cfg.SlowLatency
}

// Record stores one completed query. The recorder sets rec.Slow and owns
// rec afterwards; callers must not mutate it.
func (r *FlightRecorder) Record(rec *FlightRecord) {
	rec.Slow = r.IsSlow(time.Duration(rec.LatencyUS) * time.Microsecond)
	idx := r.seq.Add(1) - 1
	r.ring[idx%uint64(len(r.ring))].Store(rec)
	if !rec.Slow {
		return
	}
	r.slowTotal.Add(1)
	r.slowMu.Lock()
	r.slow[r.slowSeq%uint64(len(r.slow))] = rec
	r.slowSeq++
	r.slowMu.Unlock()
}

// Recorded returns the total number of records ever stored.
func (r *FlightRecorder) Recorded() uint64 { return r.seq.Load() }

// SlowCount returns the total number of promotions (the log retains only
// the most recent SlowKeep of them).
func (r *FlightRecorder) SlowCount() uint64 { return r.slowTotal.Load() }

// Last returns up to n of the most recent records, newest first. n <= 0
// selects the full ring.
func (r *FlightRecorder) Last(n int) []*FlightRecord {
	size := len(r.ring)
	if n <= 0 || n > size {
		n = size
	}
	head := r.seq.Load()
	out := make([]*FlightRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := int64(head) - 1 - int64(i)
		if idx < 0 {
			break
		}
		// A slot can be mid-overwrite by a racing writer that lapped the
		// ring; the pointer load is still atomic, we just may see the newer
		// record. Nil means the slot was never written.
		if rec := r.ring[idx%int64(size)].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Slow returns the retained slow-query log, newest first.
func (r *FlightRecorder) Slow() []*FlightRecord {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	n := r.slowSeq
	keep := uint64(len(r.slow))
	if n > keep {
		n = keep
	}
	out := make([]*FlightRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.slow[(r.slowSeq-1-i)%keep])
	}
	return out
}

// Exemplar ties a latency bucket to one concrete request: the newest
// executed query whose latency fell in the bucket. Joining a tail bucket's
// exemplar against the flight recorder, slow-query log, or span store turns
// "the p99 is high" into "this query made the p99 high".
type Exemplar struct {
	// BucketLEUS is the bucket's inclusive upper bound in microseconds.
	BucketLEUS int64 `json:"bucket_le_us"`
	// ID is the query's request ID.
	ID string `json:"id"`
	// TraceID is the query's hex trace ID, joinable against
	// /debug/flos/traces; empty when the request was untraced.
	TraceID string `json:"trace_id,omitempty"`
	// LatencyUS is the query's latency in microseconds.
	LatencyUS int64 `json:"latency_us"`
}

// Exemplars returns, for each latency bucket, the newest executed record
// (outcome neither "hit" nor "shed") the recorder still holds, in bucket
// order. The ring is read before the slow log: every slow-log record that
// has left the ring is older than everything in it.
func (r *FlightRecorder) Exemplars() []Exemplar {
	var newest [numBuckets]*FlightRecord
	for _, recs := range [2][]*FlightRecord{r.Last(0), r.Slow()} {
		for _, rec := range recs {
			if rec.Outcome == "hit" || rec.Outcome == "shed" {
				continue
			}
			if i := bucketIndex(max(rec.LatencyUS, 0)); newest[i] == nil {
				newest[i] = rec
			}
		}
	}
	var out []Exemplar
	for i, rec := range newest {
		if rec != nil {
			out = append(out, Exemplar{BucketLEUS: bucketBound(i), ID: rec.ID, TraceID: rec.TraceID, LatencyUS: rec.LatencyUS})
		}
	}
	return out
}

// TraceSampler is a core.Tracer that retains a bounded, evenly-strided
// sample of the iteration trajectory: when the buffer fills, it compacts to
// every other entry and doubles its stride, so a search of any length keeps
// at most max points spread across its whole run, always including the
// final (certifying) iteration. It allocates only on buffer growth up to
// max and is resettable, so a worker can reuse one sampler across queries.
//
// It is not concurrency-safe; use one per in-flight query.
type TraceSampler struct {
	max    int
	stride int
	total  int
	buf    []core.IterStats
	last   core.IterStats
}

// NewTraceSampler builds a sampler keeping at most max points (minimum 2:
// first and last).
func NewTraceSampler(max int) *TraceSampler {
	if max < 2 {
		max = 2
	}
	return &TraceSampler{max: max, stride: 1}
}

// Reset clears the sampler for the next query.
func (s *TraceSampler) Reset() {
	s.stride = 1
	s.total = 0
	s.buf = s.buf[:0]
}

// Total returns the number of iterations observed since the last Reset.
func (s *TraceSampler) Total() int { return s.total }

// ObserveIteration implements core.Tracer.
func (s *TraceSampler) ObserveIteration(it core.IterStats) {
	if s.total%s.stride == 0 {
		if len(s.buf) == s.max {
			// Compact to every other entry; the kept points stay evenly
			// strided because the buffer was.
			for i := 0; 2*i < len(s.buf); i++ {
				s.buf[i] = s.buf[2*i]
			}
			s.buf = s.buf[:(len(s.buf)+1)/2]
			s.stride *= 2
		}
		if s.total%s.stride == 0 {
			s.buf = append(s.buf, it)
		}
	}
	s.total++
	s.last = it
}

// Snapshot copies the sampled trajectory, appending the final iteration if
// the stride skipped it. The copy is safe to retain after Reset.
func (s *TraceSampler) Snapshot() []core.IterStats {
	if s.total == 0 {
		return nil
	}
	n := len(s.buf)
	withLast := (s.total-1)%s.stride != 0
	out := make([]core.IterStats, n, n+1)
	copy(out, s.buf)
	if withLast {
		out = append(out, s.last)
	}
	return out
}
