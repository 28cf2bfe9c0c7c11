package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
)

const (
	// oracleSample is how many answers per run are audited against the
	// global-iteration oracle.
	oracleSample = 16
	// engineSampleMax caps how many answers per run are compared with the
	// in-process engine; engineBudget caps the time that takes (at least
	// oracleSample answers are always compared). Comparing every answer
	// would redo the whole run's engine work inside the benchmark.
	engineSampleMax = 256
	engineBudget    = 2 * time.Second
	// oracleTol is the tie tolerance of the oracle audit. The oracle and the
	// engine both solve to tau = 1e-5, so scores closer than that are ties.
	oracleTol = 1e-4
)

// optionsFor mirrors the options flosd's /v1/topk handler builds for r.
func optionsFor(r request) core.Options {
	opt := core.DefaultOptions(r.Measure, r.K)
	if r.Eps > 0 {
		opt.Mode, opt.Epsilon = core.ModeEpsilon, r.Eps
	}
	return opt
}

// querierSet hands out one reusable engine session per option set.
type querierSet struct {
	g  graph.Graph
	mu sync.Mutex
	qs map[string]*core.Querier
}

func newQuerierSet(g graph.Graph) *querierSet {
	return &querierSet{g: g, qs: map[string]*core.Querier{}}
}

func (s *querierSet) get(opt core.Options) (*core.Querier, error) {
	key := fmt.Sprintf("%v/%d/%v/%g", opt.Measure, opt.K, opt.Mode, opt.Epsilon)
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.qs[key]; ok {
		return q, nil
	}
	q, err := core.NewQuerier(s.g, opt)
	if err != nil {
		return nil, err
	}
	s.qs[key] = q
	return q, nil
}

// sameAnswer reports whether the served answer equals the engine's: same
// nodes in the same order with bit-identical scores (the engine is
// deterministic and JSON round-trips float64 exactly).
func sameAnswer(a *answer, want []measure.Ranked) string {
	if len(a.Results) != len(want) {
		return fmt.Sprintf("engine returns %d results, server %d", len(want), len(a.Results))
	}
	for i, w := range want {
		if got := a.Results[i]; got.Node != w.Node || got.Score != w.Score {
			return fmt.Sprintf("rank %d: server (%d, %v), engine (%d, %v)", i, got.Node, got.Score, w.Node, w.Score)
		}
	}
	return ""
}

// oracleAudit checks a served answer against the full global-iteration
// solve. Exact answers go through core.Certify. An epsilon answer may
// legally return nodes up to epsilon worse than the true k-th score, so it is
// audited with that slack, converted to the oracle's score scale where the
// engine's displayed scores differ from it by a per-query constant (RWR).
func oracleAudit(g graph.Graph, r request, a *answer) error {
	opt := optionsFor(r)
	ranked := a.ranked()
	if r.Eps == 0 {
		return core.Certify(g, r.Q, &core.Result{TopK: ranked}, r.Measure, opt.Params, oracleTol)
	}
	oracle, _, err := measure.Exact(g, r.Q, r.Measure, opt.Params)
	if err != nil {
		return err
	}
	scale := 1.0
	if top := ranked[0]; top.Score != 0 {
		scale = math.Abs(oracle[top.Node] / top.Score)
	}
	if !measure.SameSetModuloTies(measure.Nodes(ranked), oracle, r.Q, len(ranked), r.Measure.HigherIsCloser(), r.Eps*scale+oracleTol) {
		return fmt.Errorf("answer %v is not within epsilon %g of the exact top-%d", measure.Nodes(ranked), r.Eps, len(ranked))
	}
	return nil
}

// verifyCounts reports how much of the run the sampled gates covered.
type verifyCounts struct {
	EngineCompared int `json:"engine_compared"`
	OracleAudited  int `json:"oracle_audited"`
}

// sampleReads returns up to n structurally correct reads, evenly spaced over
// all clients' records.
func sampleReads(ops [][]opRecord, n int) []*opRecord {
	var reads []*opRecord
	for c := range ops {
		for i := range ops[c] {
			if rec := &ops[c][i]; !rec.req.Mutate && rec.failure == "" {
				reads = append(reads, rec)
			}
		}
	}
	if len(reads) <= n {
		return reads
	}
	out := make([]*opRecord, n)
	for i := range out {
		out[i] = reads[i*len(reads)/n]
	}
	return out
}

// verifyStatic is the sampled part of the correctness gate on workloads whose
// graph never changes: served answers must equal the in-process engine's, and
// oracleSample of them must pass the oracle audit. Failures are written into
// the records, so they count in failed_frac like any other miss.
func verifyStatic(g graph.Graph, ops [][]opRecord) (verifyCounts, error) {
	var vc verifyCounts
	sample := sampleReads(ops, engineSampleMax)
	// Audit the first oracleSample of a stride through the sample, so they
	// are spread over the run too.
	for i := 0; i < min(oracleSample, len(sample)); i++ {
		rec := sample[i*len(sample)/min(oracleSample, len(sample))]
		if err := oracleAudit(g, rec.req, rec.ans); err != nil {
			rec.failure = "oracle: " + err.Error()
		}
		vc.OracleAudited++
	}

	qs := newQuerierSet(g)
	deadline := time.Now().Add(engineBudget)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < numClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= len(sample) || firstErr != nil || (i >= oracleSample && time.Now().After(deadline)) {
					mu.Unlock()
					return
				}
				next++
				vc.EngineCompared++
				mu.Unlock()
				rec := sample[i]
				qr, err := qs.get(optionsFor(rec.req))
				var res *core.Result
				if err == nil {
					res, err = qr.TopK(context.Background(), rec.req.Q)
				}
				mu.Lock()
				if err != nil {
					firstErr = fmt.Errorf("in-process engine: %w", err)
				} else if rec.failure == "" {
					if diff := sameAnswer(rec.ans, res.TopK); diff != "" {
						rec.failure = "engine mismatch: " + diff
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return vc, firstErr
}

// liveAudit is one post-quiesce re-query of the live workload.
type liveAudit struct {
	req     request
	failure string
}

// verifyLive is the sampled gate on the mutating workload. After the clients
// quiesce, every mutation they sent is applied to a shadow copy of the base
// graph (per-client edge sets are disjoint, so the order across clients does
// not matter), oracleSample keys are queried again over HTTP, and each answer
// must pass the oracle audit on the shadow graph.
func verifyLive(base *graph.MemGraph, srv *flosd, lists [][]request, sent []int, ops [][]opRecord) ([]liveAudit, error) {
	shadow := livegraph.New(base)
	for c, list := range lists {
		for _, r := range list[:sent[c]] {
			if r.Mutate {
				if _, _, err := shadow.Apply([]livegraph.EdgeOp{r.Op}); err != nil {
					return nil, fmt.Errorf("shadow apply: %w", err)
				}
			}
		}
	}
	snap := shadow.Acquire()
	defer snap.Release()
	world, err := snap.Materialize()
	if err != nil {
		return nil, fmt.Errorf("materialize shadow: %w", err)
	}
	cl := newClient(srv.base)
	defer cl.close()
	var audits []liveAudit
	for _, rec := range sampleReads(ops, oracleSample) {
		again := cl.exec(rec.req)
		au := liveAudit{req: rec.req, failure: again.failure}
		if au.failure == "" {
			if err := oracleAudit(world, rec.req, again.ans); err != nil {
				au.failure = "oracle on shadow graph: " + err.Error()
			}
		}
		audits = append(audits, au)
	}
	return audits, nil
}
