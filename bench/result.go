package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// suiteResult is the result file `go run ./bench` writes and -compare reads.
type suiteResult struct {
	Env       map[string]any   `json:"env"`
	Commit    string           `json:"commit"`
	Seed      int64            `json:"seed"`
	Clients   int              `json:"clients"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult holds every run of one workload plus, per metric, the
// values across runs with their median and spread.
type workloadResult struct {
	Workload string                `json:"workload"`
	Why      string                `json:"why"`
	TailPct  float64               `json:"tail_percentile"`
	EndToEnd map[string]metricRuns `json:"end_to_end"`
	PerLayer map[string]metricRuns `json:"per_layer"`
	Runs     []*runResult          `json:"runs"`
}

// metricRuns is one metric across a workload's runs.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile distance over the median (range over median below 4 runs)
	Values []float64 `json:"values"`
}

func envStamp() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// gitCommit returns the checkout's commit, or "unknown" outside a git
// repository (the benchmark driver's checkout is not one).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func collect(runs []*runResult, pick func(*runResult) metricSet) map[string]metricRuns {
	out := map[string]metricRuns{}
	for _, r := range runs {
		for name, m := range pick(r) {
			mr := out[name]
			mr.Unit = m.Unit
			mr.Values = append(mr.Values, m.Value)
			out[name] = mr
		}
	}
	for name, mr := range out {
		mr.Median, mr.Spread = median(mr.Values), spread(mr.Values)
		out[name] = mr
	}
	return out
}

// suite runs every workload: `runs` untraced runs, then one traced run.
func suite(root, outDir, outPath string, seed int64, seconds float64, smoke bool, runs int) error {
	sr := suiteResult{Env: envStamp(), Commit: gitCommit(root), Seed: seed, Clients: numClients, Seconds: seconds, Smoke: smoke}
	gateMissed := false
	for i := range specs {
		sp := &specs[i]
		wr := workloadResult{Workload: sp.name, Why: sp.why, TailPct: sp.tailPct}
		for r := 0; r <= runs; r++ {
			traced := r == runs
			pass := fmt.Sprintf("untraced run %d/%d", r+1, runs)
			if traced {
				pass = "traced pass"
			}
			fmt.Fprintf(os.Stderr, "== %s: %s\n", sp.name, pass)
			start := time.Now()
			res, err := run(runConfig{sp: sp, smoke: smoke, seed: seed, seconds: seconds, traced: traced, root: root, outDir: outDir})
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			res.PhaseS["total"] = time.Since(start).Seconds()
			printRun(os.Stdout, res)
			gateMissed = gateMissed || !res.correct() || len(res.TraceErrors) > 0
			wr.Runs = append(wr.Runs, res)
		}
		wr.EndToEnd = collect(wr.Runs, func(r *runResult) metricSet { return r.EndToEnd })
		wr.PerLayer = collect(wr.Runs, func(r *runResult) metricSet { return r.PerLayer })
		sr.Workloads = append(sr.Workloads, wr)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if gateMissed {
		return errors.New("at least one run missed a gate (failed operations, qserve.shed, livegraph.snapshots_alive_end or trace.sum_over_wall)")
	}
	return nil
}

// printRun prints one run's metrics by name and unit. Metrics that do not
// apply to the workload (value 0, no samples) are marked n/a.
func printRun(w io.Writer, res *runResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s clients=%d ops sent=%d succeeded=%d failed=%d engine_compared=%d oracle_audited=%d inputs_sha256=%.12s\n",
		res.Workload, res.Seed, pass, res.Clients, res.Ops.Sent, res.Ops.Succeeded, res.Ops.Failed,
		res.Verify.EngineCompared, res.Verify.OracleAudited, res.InputsSHA256)
	fmt.Fprintf(w, "  flosd: %s\n  phases:", strings.Join(res.FlosdCmd, " "))
	for _, name := range []string{"build", "setup", "drive", "verify", "ladder", "total"} {
		if s, ok := res.PhaseS[name]; ok {
			fmt.Fprintf(w, " %s=%.2fs", name, s)
		}
	}
	fmt.Fprintln(w)
	show := func(defs []metricDef, set metricSet) {
		for _, d := range defs {
			m, ok := set[d.name]
			switch {
			case !ok:
			case m.Value == 0 && m.Samples == 0:
				fmt.Fprintf(w, "  %-32s %14s\n", d.name, "n/a")
			case m.Beyond > 0:
				fmt.Fprintf(w, "  %-32s %14.4f %-6s (n=%d, %d beyond)\n", d.name, m.Value, m.Unit, m.Samples, m.Beyond)
			default:
				fmt.Fprintf(w, "  %-32s %14.4f %-6s (n=%d)\n", d.name, m.Value, m.Unit, m.Samples)
			}
		}
	}
	if !res.Traced {
		show(endToEnd, res.EndToEnd)
	} else {
		show(perLayer, res.PerLayer)
		fmt.Fprintf(w, "  spans: %s\n", res.SpanFile)
	}
	if res.Exhausted {
		fmt.Fprintln(w, "  note: a client ran out of generated requests before the window closed")
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, g := range append(res.GateErrors, res.TraceErrors...) {
		fmt.Fprintf(w, "  GATE %s\n", g)
	}
}
