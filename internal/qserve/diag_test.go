package qserve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
	"flos/internal/obs"
)

func diagGraph(t *testing.T) *graph.MemGraph {
	t.Helper()
	g, err := gen.Community(2000, 5400, gen.DefaultCommunityParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOutcomeParityWithCacheHits is the satellite-2 regression: cache-hit
// answers get their own outcome counter, so OK + Hit + Deadline + Canceled +
// Failed == Served holds exactly, and per measure the executed-latency
// histogram count plus HitByMeasure covers every served query. Before the
// hit counter existed, cached answers inflated Served with no matching
// outcome, which overcounted SLO availability.
func TestOutcomeParityWithCacheHits(t *testing.T) {
	g := diagGraph(t)
	pool := New(g, Config{Workers: 2, CacheEntries: 64})
	defer pool.Close()

	reqs := []Request{
		{Query: 100, Opt: core.DefaultOptions(measure.PHP, 5)},
		{Query: 200, Opt: core.DefaultOptions(measure.RWR, 5)},
		{Query: 300, Opt: core.DefaultOptions(measure.PHP, 5), Unified: true},
	}
	for round := 0; round < 3; round++ { // round 1 executes, rounds 2-3 hit
		for _, req := range reqs {
			resp, err := pool.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if round > 0 && !resp.CacheHit {
				t.Fatalf("round %d query %d missed the cache", round, req.Query)
			}
		}
	}

	m := pool.Metrics()
	if m.Served != 9 || m.OK != 3 || m.Hit != 6 {
		t.Fatalf("served/ok/hit = %d/%d/%d, want 9/3/6", m.Served, m.OK, m.Hit)
	}
	if got := m.OK + m.Hit + m.Deadline + m.Canceled + m.Failed; got != m.Served {
		t.Fatalf("outcome sum %d != served %d", got, m.Served)
	}
	// Per-measure parity: histogram (executed) + hits covers served.
	for _, label := range []string{"php", "rwr", "unified"} {
		got := m.LatencyByMeasure[label].Count + m.HitByMeasure[label]
		if got != 3 {
			t.Errorf("measure %q: executed %d + hits %d = %d, want 3",
				label, m.LatencyByMeasure[label].Count, m.HitByMeasure[label], got)
		}
	}
	// Hits never pollute the executed-latency histograms.
	if n := executedCount(m); n != 3 {
		t.Errorf("executed histogram count = %d, want 3", n)
	}
}

// cancelAfter cancels its query's context once the search has run n
// iterations, so the interruption lands at the same point on every run.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) ObserveIteration(it core.IterStats) {
	if it.Iteration == c.n {
		c.cancel()
	}
}

// TestFlightRecordKeepsPartial: an interrupted query's flight record
// carries the work counters and the in-flight top-k of the *Interrupted's
// Partial — the PHP-family ranking for a unified query, whose Partial is
// PartialUnified's embedded Result — and a completed query's record carries
// no partial.
func TestFlightRecordKeepsPartial(t *testing.T) {
	g := diagGraph(t)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 8, SlowLatency: -1})
	pool := New(g, Config{Workers: 1, CacheEntries: -1, Recorder: rec})
	defer pool.Close()
	for _, unified := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := core.DefaultOptions(measure.RWR, 10)
		opt.Tracer = &cancelAfter{n: 3, cancel: cancel}
		_, err := pool.Do(ctx, Request{Query: 100, Opt: opt, Unified: unified})
		cancel()
		var in *core.Interrupted
		if !errors.As(err, &in) || in.Partial == nil || len(in.Partial.TopK) == 0 {
			t.Fatalf("unified=%v: err %v, want an *Interrupted with a non-empty partial", unified, err)
		}
		if unified && (in.PartialUnified == nil || in.Partial != &in.PartialUnified.Result) {
			t.Fatalf("unified partial is not PartialUnified's embedded Result")
		}
		r := rec.Last(1)[0]
		p := in.Partial
		if r.Outcome != "canceled" || r.Unified != unified || !slices.Equal(r.PartialTopK, p.TopK) ||
			r.Iterations != p.Iterations || r.Visited != p.Visited || r.Sweeps != p.Sweeps || r.Exact {
			t.Fatalf("unified=%v: record %+v does not match the partial %+v", unified, r, p)
		}
		if in.Error() != fmt.Sprintf("%v after %d iterations (%d visited, %d sweeps)", core.ErrCanceled, p.Iterations, p.Visited, p.Sweeps) {
			t.Fatalf("unified=%v: error %q does not read the partial's counters", unified, in.Error())
		}
	}
	if _, err := pool.Do(context.Background(), Request{Query: 100, Opt: core.DefaultOptions(measure.RWR, 10), Unified: true}); err != nil {
		t.Fatal(err)
	}
	if r := rec.Last(1)[0]; r.Outcome != "ok" || r.PartialTopK != nil || !r.Exact {
		t.Fatalf("completed query's record %+v carries a partial or no certificate", r)
	}
}

// TestFlightRecorderOutcomePaths wires a recorder into the pool and checks
// every outcome path emits a record: executed queries carry a down-sampled
// trajectory and a request ID, cache hits carry outcome "hit" with the same
// ID threading, and batch members keep the IDs the caller gave them.
func TestFlightRecorderOutcomePaths(t *testing.T) {
	g := diagGraph(t)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 64, SlowLatency: -1})
	slo := obs.NewSLOTracker(obs.SLOConfig{})
	pool := New(g, Config{Workers: 2, CacheEntries: 64, Recorder: rec, SLO: slo})
	defer pool.Close()

	req := Request{Query: 100, Opt: core.DefaultOptions(measure.PHP, 5)}
	if _, err := pool.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	resp, err := pool.Do(context.Background(), req) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("second identical query missed the cache")
	}

	last := rec.Last(10)
	if len(last) != 2 {
		t.Fatalf("recorded %d records, want 2", len(last))
	}
	hit, exec := last[0], last[1] // newest first
	if hit.Outcome != "hit" || exec.Outcome != "ok" {
		t.Fatalf("outcomes = %q,%q, want hit,ok", hit.Outcome, exec.Outcome)
	}
	if exec.ID == "" || hit.ID == "" {
		t.Fatal("pool did not assign request IDs")
	}
	if len(exec.Trace) == 0 || exec.TraceTotal != exec.Iterations {
		t.Fatalf("executed record trajectory: %d points of %d total (iterations %d)",
			len(exec.Trace), exec.TraceTotal, exec.Iterations)
	}
	if got := exec.Trace[len(exec.Trace)-1]; !got.Certified {
		t.Errorf("final trace point not certified: %+v", got)
	}
	if exec.Visited == 0 || exec.Iterations == 0 || !exec.Exact {
		t.Errorf("work counters not populated: %+v", exec)
	}
	if hit.Trace != nil || hit.Visited != 0 {
		t.Errorf("cache hit carries execution state: %+v", hit)
	}

	// The executed record's ID is the exemplar of its latency bucket — the
	// join key between /metrics and the flight recorder.
	found := false
	for _, ex := range rec.Exemplars() {
		if ex.ID == exec.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("request ID %s not found among latency exemplars", exec.ID)
	}

	// Batch members arrive as Do calls with slot-suffixed IDs; each is
	// recorded under its own ID, executed or cached.
	batch := []Request{
		{ID: "batch-0", Query: 400, Opt: core.DefaultOptions(measure.RWR, 5)},
		{ID: "batch-1", Query: 100, Opt: core.DefaultOptions(measure.PHP, 5)}, // cached
	}
	for i, r := range batch {
		if _, err := pool.Do(context.Background(), r); err != nil {
			t.Fatalf("batch member %d: %v", i, err)
		}
	}
	if got := rec.Recorded(); got != 4 {
		t.Fatalf("recorded %d records after batch, want 4", got)
	}
	if last := rec.Last(2); last[0].ID != "batch-1" || last[0].Outcome != "hit" ||
		last[1].ID != "batch-0" || last[1].Outcome != "ok" {
		t.Fatalf("batch members recorded as %s/%s, %s/%s; want batch-1/hit, batch-0/ok",
			last[0].ID, last[0].Outcome, last[1].ID, last[1].Outcome)
	}

	// SLO saw only good events so both windows are fully compliant.
	s := slo.Snapshot()
	for _, w := range s.Windows {
		if w.Total != 4 || w.Errors != 0 || w.Availability != 1 {
			t.Errorf("window %s: %+v, want 4 good events", w.Window, w)
		}
	}
}

// TestFlightRecorderSlowPromotionAndSLOErrors forces deadline outcomes and
// checks they are promoted into the slow log (threshold 1ns: everything is
// slow) and recorded as SLO errors, while client cancellations stay out of
// the SLO accounting.
func TestFlightRecorderSlowPromotionAndSLOErrors(t *testing.T) {
	g := diagGraph(t)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 16, SlowLatency: time.Nanosecond})
	slo := obs.NewSLOTracker(obs.SLOConfig{})
	pool := New(g, Config{Workers: 1, CacheEntries: -1, Timeout: time.Nanosecond, Recorder: rec, SLO: slo})
	defer pool.Close()

	if _, err := pool.Do(context.Background(), Request{Query: 1, Opt: core.DefaultOptions(measure.PHP, 5)}); err == nil {
		t.Fatal("1ns deadline did not interrupt")
	}
	slow := rec.Slow()
	if len(slow) != 1 || slow[0].Outcome != "deadline" || !slow[0].Slow {
		t.Fatalf("slow log = %+v, want one promoted deadline record", slow)
	}
	s := slo.Snapshot()
	if w := s.Windows[0]; w.Total != 1 || w.Errors != 1 {
		t.Fatalf("SLO window after deadline: %+v, want 1 error of 1", w)
	}

	// A client-canceled query is recorded in flight but not against the SLO.
	cpool := New(g, Config{Workers: 1, CacheEntries: -1, Recorder: rec, SLO: slo})
	defer cpool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cpool.Do(ctx, Request{Query: 2, Opt: core.DefaultOptions(measure.PHP, 5)}); err == nil {
		t.Fatal("canceled context did not interrupt")
	}
	if w := slo.Snapshot().Windows[0]; w.Total != 1 {
		t.Fatalf("cancellation leaked into SLO accounting: %+v", w)
	}
	if got := rec.Last(1); len(got) != 1 || got[0].Outcome != "canceled" {
		t.Fatalf("last record = %+v, want canceled", got)
	}
}

// TestRecorderTeesUserTracer: when both a user tracer and the flight
// recorder are active, the user's collector still sees the full trajectory
// and the record carries the down-sampled one.
func TestRecorderTeesUserTracer(t *testing.T) {
	g := diagGraph(t)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 8, SlowLatency: -1})
	pool := New(g, Config{Workers: 1, CacheEntries: 64, Recorder: rec})
	defer pool.Close()

	tc := &core.TraceCollector{}
	req := Request{Query: 100, Opt: core.DefaultOptions(measure.RWR, 5)}
	req.Opt.Tracer = tc
	resp, err := pool.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("traced request served from cache")
	}
	if len(tc.Iters) != resp.TopK.Iterations {
		t.Fatalf("user tracer saw %d iterations, want %d", len(tc.Iters), resp.TopK.Iterations)
	}
	last := rec.Last(1)
	if len(last) != 1 {
		t.Fatal("no flight record for traced query")
	}
	r := last[0]
	if r.TraceTotal != resp.TopK.Iterations {
		t.Errorf("record trace total %d, want %d", r.TraceTotal, resp.TopK.Iterations)
	}
	if len(r.Trace) == 0 || len(r.Trace) > obs.TracePoints+1 {
		t.Errorf("down-sampled trajectory has %d points, want 1..%d", len(r.Trace), obs.TracePoints+1)
	}
}

// outcomeCounts is the slice of Metrics one query's outcome moves.
type outcomeCounts struct {
	served, shed, interrupted, ok, hit, deadline, canceled, failed, executed int64
}

func countsOf(m Metrics) outcomeCounts {
	return outcomeCounts{m.Served, m.Shed, m.Interrupted, m.OK, m.Hit, m.Deadline, m.Canceled, m.Failed, executedCount(m)}
}

// executedCount sums the per-measure histograms: every executed query.
func executedCount(m Metrics) int64 {
	var n int64
	for _, s := range m.LatencyByMeasure {
		n += s.Count
	}
	return n
}

func (c outcomeCounts) minus(o outcomeCounts) outcomeCounts {
	return outcomeCounts{c.served - o.served, c.shed - o.shed, c.interrupted - o.interrupted, c.ok - o.ok,
		c.hit - o.hit, c.deadline - o.deadline, c.canceled - o.canceled, c.failed - o.failed, c.executed - o.executed}
}

// TestOutcomeAccounting sends each of the six outcomes through Do and checks
// the three places it is accounted together: the outcome counters (and the
// executed-latency histogram), the SLO window (a cancellation is no event, a
// shed is an error), and the flight record.
func TestOutcomeAccounting(t *testing.T) {
	g := diagGraph(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Query: 100, Opt: core.DefaultOptions(measure.PHP, 5)}
	zeroK := req
	zeroK.Opt.K = 0
	gate := &gateGraph{base: g, gate: make(chan struct{}), entered: make(chan struct{}, 16)}

	cases := []struct {
		name     string
		cfg      Config
		g        graph.Graph
		ctx      context.Context
		req      Request
		setup    func(t *testing.T, p *Pool) (release func())
		want     outcomeCounts
		sloEvent bool
		sloError bool
	}{
		{name: "ok", req: req, want: outcomeCounts{served: 1, ok: 1, executed: 1}, sloEvent: true},
		{name: "hit", req: req, setup: func(t *testing.T, p *Pool) func() {
			if _, err := p.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			return nil
		}, want: outcomeCounts{served: 1, hit: 1}, sloEvent: true},
		{name: "shed", req: req, cfg: Config{QueueDepth: 1}, g: gate, setup: func(t *testing.T, p *Pool) func() {
			return holdQueue(t, p, gate)
		}, want: outcomeCounts{shed: 1}, sloEvent: true, sloError: true},
		{name: "deadline", req: req, cfg: Config{Timeout: time.Nanosecond},
			want: outcomeCounts{served: 1, interrupted: 1, deadline: 1, executed: 1}, sloEvent: true, sloError: true},
		{name: "canceled", req: req, ctx: canceled,
			want: outcomeCounts{served: 1, interrupted: 1, canceled: 1, executed: 1}},
		{name: "failed", req: zeroK,
			want: outcomeCounts{served: 1, failed: 1, executed: 1}, sloEvent: true, sloError: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewFlightRecorder(obs.RecorderConfig{Size: 8, SlowLatency: -1})
			slo := obs.NewSLOTracker(obs.SLOConfig{})
			cfg := tc.cfg
			cfg.Recorder, cfg.SLO = rec, slo
			if cfg.Workers == 0 {
				cfg.Workers = 1
			}
			var gg graph.Graph = g
			if tc.g != nil {
				gg = tc.g
			}
			p := New(gg, cfg)
			defer p.Close()
			if tc.setup != nil {
				if release := tc.setup(t, p); release != nil {
					defer release()
				}
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			before, sloBefore := countsOf(p.Metrics()), slo.Snapshot().Windows[0]

			resp, err := p.Do(ctx, tc.req)

			if (err == nil) != (tc.name == "ok" || tc.name == "hit") {
				t.Fatalf("err = %v", err)
			}
			if got := countsOf(p.Metrics()).minus(before); got != tc.want {
				t.Errorf("counters moved by %+v, want %+v", got, tc.want)
			}
			w := slo.Snapshot().Windows[0]
			if events, errs := w.Total-sloBefore.Total, w.Errors-sloBefore.Errors; events != b2i(tc.sloEvent) || errs != b2i(tc.sloError) {
				t.Errorf("SLO events/errors = %d/%d, want %d/%d", events, errs, b2i(tc.sloEvent), b2i(tc.sloError))
			}
			last := rec.Last(1)
			if len(last) != 1 {
				t.Fatal("no flight record")
			}
			r := last[0]
			if r.Outcome != tc.name || r.ID == "" || r.Query != int64(tc.req.Query) || r.K != tc.req.Opt.K {
				t.Errorf("record = %+v, want outcome %q for query %d", r, tc.name, tc.req.Query)
			}
			switch tc.name {
			case "ok":
				if r.Visited != resp.TopK.Visited || r.Iterations != resp.TopK.Iterations || !r.Exact || r.TraceTotal != r.Iterations {
					t.Errorf("ok record does not carry the search's work: %+v", r)
				}
			case "hit", "shed":
				if r.Visited != 0 || r.Trace != nil {
					t.Errorf("%s record carries execution state: %+v", tc.name, r)
				}
			}
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// holdQueue blocks the pool's one worker inside a query on a gateGraph and
// fills its one-slot queue, so the next Do is shed. release opens the gate
// and waits for both held queries.
func holdQueue(t *testing.T, p *Pool, gg *gateGraph) func() {
	req := Request{Query: 0, Opt: core.DefaultOptions(measure.PHP, 1)}
	done := make(chan error, 2)
	go func() { _, err := p.Do(context.Background(), req); done <- err }()
	<-gg.entered
	go func() { _, err := p.Do(context.Background(), req); done <- err }()
	for p.QueueDepth() < 1 {
		time.Sleep(time.Millisecond)
	}
	return func() {
		close(gg.gate)
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Errorf("held query: %v", err)
			}
		}
	}
}
