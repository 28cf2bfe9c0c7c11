package main

// Shared machine-readable output for the BENCH_*.json artifacts: every
// benchmark body passes through writeBenchJSON, which stamps the execution
// environment before writing. The stamp is what makes a stored result
// interpretable after the fact — a serving-throughput ratio measured with
// GOMAXPROCS=1 is a statement about scheduling overhead, not about
// parallelism — and what lets CI gates assert they ran on the hardware they
// think they did. Schema: results/README.md.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// envStamp describes the environment a benchmark executed in.
func envStamp() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// writeBenchJSON stamps body with the environment and writes it, indented,
// to jsonPath, echoing the path to out like every benchmark's text report.
func writeBenchJSON(out io.Writer, jsonPath string, body map[string]any) error {
	body["env"] = envStamp()
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(body); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", jsonPath)
	return nil
}
