package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json at the module root; -compare takes the
// per-metric bounds from it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func readSuiteResult(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(b, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict applies one metric's bound to two sets of runs. B is worse when its
// median is worse than A's by more than the bound. When either side's own
// run-to-run spread exceeds the bound the pair is unresolved rather than ok —
// unless B is worse even so.
func verdict(a, b metricRuns, better string, bound float64) (ratio float64, v string) {
	if a.Median == 0 {
		return 0, verdictUnresolved
	}
	ratio = b.Median / a.Median
	worse := ratio > 1+bound
	if better == "higher" {
		worse = ratio < 1-bound
	}
	switch {
	case worse:
		return ratio, verdictWorse
	case a.Spread > bound || b.Spread > bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns an error when any row is worse.
func compareFiles(root, pathA, pathB string, w io.Writer) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := readSuiteResult(pathA)
	if err != nil {
		return err
	}
	b, err := readSuiteResult(pathB)
	if err != nil {
		return err
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	fmt.Fprintf(w, "A: %s (commit %.12s, seed %d)\nB: %s (commit %.12s, seed %d)\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %7s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Workload)
		}
		for _, m := range bf.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s on %s is missing from a result file", m.Name, wa.Workload)
			}
			ratio, v := verdict(ma, mb, m.Better, m.Bound)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %7.3f %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wa.Workload, m.Name, ma.Median, mb.Median, ratio, 100*ma.Spread, 100*mb.Spread, 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound allows", worse)
	}
	return nil
}
