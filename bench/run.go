package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flos/internal/graph"
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	sp      *spec
	smoke   bool
	seed    int64
	seconds float64
	traced  bool
	root    string // module root
	outDir  string // bench/out
}

func (c runConfig) sizes() sizes {
	if c.smoke {
		return c.sp.smoke
	}
	return c.sp.full
}

// An untraced run sets the workload up from scratch at least minSetups times
// and reports the median as setup_s. Where a set-up takes tens of
// milliseconds it mostly measures process start-up and scatters, so cheap
// set-ups are repeated, up to maxSetups, while they have used less than
// cheapSetupBudget in total.
const (
	minSetups        = 3
	maxSetups        = 9
	cheapSetupBudget = time.Second
)

// runResult is everything one run reports.
type runResult struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Traced       bool               `json:"traced"`
	Clients      int                `json:"clients"`
	InputsSHA256 string             `json:"inputs_sha256"`
	FlosdCmd     []string           `json:"flosd_cmd"`
	Ops          opCounts           `json:"ops"`
	Verify       verifyCounts       `json:"verify"`
	Exhausted    bool               `json:"exhausted,omitempty"`
	PhaseS       map[string]float64 `json:"phase_s"`
	EndToEnd     metricSet          `json:"end_to_end,omitempty"`
	PerLayer     metricSet          `json:"per_layer,omitempty"`
	// Failures lists the first few operations that missed the correctness
	// gate; GateErrors the run-level invariants that did not hold; TraceErrors
	// what the traced pass found wrong with its own arithmetic. The first two
	// make the run incorrect; the third fails the suite command only, because
	// it is a statistic of the measurement and not a property of the answers.
	Failures    []string `json:"failures,omitempty"`
	GateErrors  []string `json:"gate_errors,omitempty"`
	TraceErrors []string `json:"trace_errors,omitempty"`
	SpanFile    string   `json:"span_file,omitempty"`
}

// correct reports whether every answer passed its gate and the run-level
// invariants held.
func (r *runResult) correct() bool { return r.Ops.Failed == 0 && len(r.GateErrors) == 0 }

// run executes one untraced or traced run. The run's temp dir (graph file,
// flosd stderr, ladder access log) is removed on success and kept on
// failure.
func run(cfg runConfig) (res *runResult, err error) {
	res = &runResult{Workload: cfg.sp.name, Seed: cfg.seed, Traced: cfg.traced, Clients: numClients, PhaseS: map[string]float64{}}
	phase := func(name string, start time.Time) { res.PhaseS[name] += time.Since(start).Seconds() }

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	bin, err := buildFlosd(cfg.root, filepath.Join(cfg.outDir, "bin"))
	if err != nil {
		return nil, err
	}
	phase("build", t0)
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+cfg.sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == nil && res.correct() {
			os.RemoveAll(dir)
		} else {
			fmt.Fprintf(os.Stderr, "bench: run files kept in %s\n", dir)
		}
	}()

	// Set-up: several times on an untraced run, the last server stays.
	var (
		g      *graph.MemGraph
		srv    *flosd
		setups []setupTimes
	)
	t0 = time.Now()
	for more := true; more; {
		if srv != nil {
			srv.stop()
		}
		var st setupTimes
		if g, srv, st, err = setup(cfg.sp, cfg.sizes(), bin, dir); err != nil {
			return nil, err
		}
		setups = append(setups, st)
		more = !cfg.traced && (len(setups) < minSetups || (len(setups) < maxSetups && time.Since(t0) < cheapSetupBudget))
	}
	phase("setup", t0)
	defer srv.stop()
	res.FlosdCmd = srv.args
	sort.Slice(setups, func(i, j int) bool { return setups[i].total() < setups[j].total() })
	mid := setups[len(setups)/2]

	lists := cfg.sp.requests(g, cfg.sizes(), cfg.seed)
	res.InputsSHA256 = inputsHash(lists)

	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		window = window * 2 / 5 // the ladder gets the rest
	}
	t0 = time.Now()
	dr, err := drive(srv, lists, cfg.sizes().warmOps, window)
	if err != nil {
		return nil, err
	}
	phase("drive", t0)
	res.Exhausted = dr.exhausted
	rssPeak, err := srv.procStatusMB("VmHWM")
	if err != nil {
		return nil, err
	}

	// Sampled correctness gates; their failures land in the op records.
	t0 = time.Now()
	extraFailed := 0
	if cfg.sp.backend == backendLive {
		// A worker releases its snapshot pin just after handing the answer
		// back, so the scrape that closed the window can catch the last pin
		// still held; a leak is a count that never settles.
		for deadline := time.Now().Add(2 * time.Second); dr.after.Live.SnapshotsAlive != 1 && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			m, err := srv.scrape()
			if err != nil {
				return nil, err
			}
			dr.after.Live.SnapshotsAlive = m.Live.SnapshotsAlive
		}
		audits, err := verifyLive(g, srv, lists, dr.sent, dr.ops)
		if err != nil {
			return nil, err
		}
		res.Verify.OracleAudited = len(audits)
		for _, au := range audits {
			if au.failure != "" {
				extraFailed++
				_, path, _ := au.req.target()
				res.Failures = append(res.Failures, "post-quiesce "+path+": "+au.failure)
			}
		}
	} else if res.Verify, err = verifyStatic(g, dr.ops); err != nil {
		return nil, err
	}
	phase("verify", t0)
	srv.stop() // before the traced pass, which wants the cores to itself

	res.Ops = countOps(dr.ops, extraFailed)
	for c := range dr.ops {
		for i := range dr.ops[c] {
			if rec := &dr.ops[c][i]; rec.failure != "" && len(res.Failures) < 8 {
				_, path, _ := rec.req.target()
				res.Failures = append(res.Failures, path+": "+rec.failure)
			}
		}
	}
	e2e, layer := clientMetrics(cfg.sp, dr, res.Ops)
	scrapeMetrics(dr, layer)
	e2e.setE2E("setup_s", mid.total(), len(setups), 0)
	layer.setLayer("runtime.rss_peak_mb", rssPeak, 1)
	layer.setLayer("setup.gen_s", mid.GenS, len(setups))
	layer.setLayer("setup.write_s", mid.WriteS, len(setups))
	layer.setLayer("setup.load_s", mid.LoadS, len(setups))

	if layer["qserve.shed"].Value > 0 {
		res.GateErrors = append(res.GateErrors, fmt.Sprintf("qserve.shed = %v, want 0", layer["qserve.shed"].Value))
	}
	if alive := layer["livegraph.snapshots_alive_end"].Value; cfg.sp.backend == backendLive && alive != 1 {
		res.GateErrors = append(res.GateErrors, fmt.Sprintf("livegraph.snapshots_alive_end = %v, want 1", alive))
	}

	if !cfg.traced {
		res.EndToEnd = e2e
		return res, nil
	}

	// Traced pass: replay client 0's list down the ladder, in-process, with
	// the subprocess gone so it has the cores to itself.
	t0 = time.Now()
	lad, err := newLadder(cfg.sp, g, dir)
	if err != nil {
		return nil, err
	}
	defer lad.Close()
	budget := time.Duration(cfg.seconds*float64(time.Second)) - window
	warmOps, warmFor := ladderWarmOps, time.Duration(0)
	if cfg.sp.backend == backendLive {
		warmOps, warmFor = 0, budget/3 // the rungs' result caches must fill first
	}
	samples, err := lad.run(lists[0], warmOps, warmFor, budget-warmFor)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	phase("ladder", t0)
	if len(samples) == 0 {
		return nil, fmt.Errorf("traced pass: no request completed within its %v budget", budget)
	}
	readP50, _ := pctOrZero(latencies(dr, isRead), 0.50) // hits included, like the ladder's round trips
	ladderMetrics(cfg.sp, samples, lad.pinNS(), readP50, layer)
	// Not at smoke scale: a few dozen sub-millisecond samples are all noise.
	if sow := layer["trace.sum_over_wall"].Value; !cfg.smoke && (sow < 0.90 || sow > 1.10) {
		res.TraceErrors = append(res.TraceErrors, fmt.Sprintf("trace.sum_over_wall = %.3f, want 0.90-1.10", sow))
	}
	res.SpanFile = filepath.Join(cfg.outDir, "spans-"+cfg.sp.name+".jsonl")
	if err := writeSpans(res.SpanFile, spansOf(cfg.sp.name, samples)); err != nil {
		return nil, err
	}
	fill(perLayer, layer)
	res.PerLayer = layer
	return res, nil
}
