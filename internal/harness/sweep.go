package harness

import (
	"time"

	"flos/internal/graph"
	"flos/internal/measure"
)

// Row is one measured cell of a figure: a (method, k) pair averaged over the
// query workload.
type Row struct {
	Dataset      string
	Method       string
	K            int
	AvgTime      time.Duration
	MinTime      time.Duration
	MaxTime      time.Duration
	AvgVisited   float64
	VisitedRatio float64 // AvgVisited / |V|
	MinRatio     float64
	MaxRatio     float64
	Precision    float64 // vs the exact set; 1.0 for exact methods
	// Exact holds when every query was answered and every answer certified
	// itself exact.
	Exact bool
	// Answers holds one Answer per answered query, in workload order.
	Answers []Answer
	Err     string
}

// SweepConfig controls a measurement run.
type SweepConfig struct {
	Ks      []int
	Queries []graph.NodeID
	// Oracle, when non-nil, scores precision of approximate methods: it maps
	// a query to its exact proximity vector. Leave nil to skip (precision is
	// then reported as NaN via -1).
	Oracle func(q graph.NodeID) ([]float64, bool, error) // scores, higherIsCloser, err
}

// RunSweep measures every (method, k) cell on one dataset.
func RunSweep(name string, g graph.Graph, methods []Method, cfg SweepConfig) []Row {
	var rows []Row
	n := float64(g.NumNodes())
	for _, m := range methods {
		for _, k := range cfg.Ks {
			row := Row{Dataset: name, Method: m.Name, K: k, Precision: -1}
			var totalTime time.Duration
			var totalVisited float64
			var precSum float64
			precCount := 0
			for _, q := range cfg.Queries {
				start := time.Now()
				a, err := m.Run(g, q, k)
				elapsed := time.Since(start)
				if err != nil {
					row.Err = err.Error()
					break
				}
				ratio := float64(a.Visited) / n
				if len(row.Answers) == 0 {
					row.MinTime, row.MaxTime = elapsed, elapsed
					row.MinRatio, row.MaxRatio = ratio, ratio
				}
				row.Answers = append(row.Answers, a)
				totalTime += elapsed
				totalVisited += float64(a.Visited)
				row.MinTime, row.MaxTime = min(row.MinTime, elapsed), max(row.MaxTime, elapsed)
				row.MinRatio, row.MaxRatio = min(row.MinRatio, ratio), max(row.MaxRatio, ratio)
				if cfg.Oracle != nil {
					scores, higher, err := cfg.Oracle(q)
					if err == nil {
						want := measure.Nodes(measure.TopK(scores, q, k, higher))
						precSum += measure.Precision(a.Nodes, want)
						precCount++
					}
				}
			}
			row.Exact = row.Err == "" && len(row.Answers) > 0
			for _, a := range row.Answers {
				row.Exact = row.Exact && a.Exact
			}
			if qs := len(row.Answers); qs > 0 {
				row.AvgTime = totalTime / time.Duration(qs)
				row.AvgVisited = totalVisited / float64(qs)
				row.VisitedRatio = row.AvgVisited / n
			}
			if precCount > 0 {
				row.Precision = precSum / float64(precCount)
			}
			rows = append(rows, row)
		}
	}
	return rows
}
