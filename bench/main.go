// Command bench is this repository's benchmark: it builds the shipped flosd,
// runs it as a subprocess with its default flags, drives it over loopback
// HTTP with two closed-loop clients, checks every answer, and reports named
// end-to-end metrics; a separate traced pass replays the same requests
// in-process down a ladder of entry points and reports per-layer metrics.
// See README.md in this directory.
//
//	go run ./bench                                   # all workloads, both passes, result JSON under bench/out/
//	go run ./bench -workload mem-mixed-light -seed 3 -seconds 12 -trace 0
//	go run ./bench -compare a.json b.json            # regression verdicts from two result files
//	go run ./bench -smoke                            # tiny graphs, sub-second windows
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one result line (the benchmark driver's mode); empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "workload seed: query choice, Zipf draws, mutation edges")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of one run's measurement")
		traceOn  = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny graphs and short windows: exercises the whole pipeline in seconds, measures nothing")
		runs     = flag.Int("runs", 1, "suite mode: untraced runs per workload (the A/A check uses >= 3)")
		out      = flag.String("out", "", "suite mode: result file (default bench/out/result-<time>.json)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceOn, *smoke, *runs, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, traceOn int, smoke bool, runs int, out string, compare bool, args []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(root, args[0], args[1], os.Stdout)
	}
	if smoke && seconds == defaultSeconds {
		seconds = smokeSeconds
	}
	outDir := filepath.Join(root, "bench", "out")
	if workload != "" {
		sp, err := specByName(workload)
		if err != nil {
			return err
		}
		res, err := run(runConfig{sp: sp, smoke: smoke, seed: seed, seconds: seconds, traced: traceOn != 0, root: root, outDir: outDir})
		if err != nil {
			return err
		}
		printRun(os.Stderr, res)
		if err := json.NewEncoder(os.Stdout).Encode(driverLine(res)); err != nil {
			return err
		}
		if !res.correct() {
			return errors.New("run missed the correctness gate")
		}
		return nil
	}
	if out == "" {
		out = filepath.Join(outDir, "result-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	return suite(root, outDir, out, seed, seconds, smoke, runs)
}

const (
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds = 25
	smokeSeconds   = 0.6
)

// driverLine is the one-line result the benchmark contract asks for: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced run.
func driverLine(res *runResult) map[string]any {
	src := res.EndToEnd
	if res.Traced {
		src = res.PerLayer
	}
	metrics := map[string]any{}
	for name, m := range src {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   res.correct(),
		"attempted": res.Ops.Sent,
		"failed":    res.Ops.Failed,
		"metrics":   metrics,
	}
}
