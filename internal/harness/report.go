package harness

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// PrintRows renders rows as an aligned text table grouped by dataset, one
// line per (method, k) — the textual analogue of one figure panel.
func PrintRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	byDataset := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byDataset[r.Dataset]; !ok {
			order = append(order, r.Dataset)
		}
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	for _, ds := range order {
		fmt.Fprintf(w, "-- dataset %s --\n", ds)
		fmt.Fprintf(w, "%-10s %5s %12s %12s %10s %9s %s\n",
			"method", "k", "avg-time", "max-time", "visited", "precision", "exact")
		rs := byDataset[ds]
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Method != rs[j].Method {
				return rs[i].Method < rs[j].Method
			}
			return rs[i].K < rs[j].K
		})
		for _, r := range rs {
			if r.Err != "" {
				fmt.Fprintf(w, "%-10s %5d   ERROR: %s\n", r.Method, r.K, r.Err)
				continue
			}
			prec := "-"
			if r.Precision >= 0 {
				prec = fmt.Sprintf("%.3f", r.Precision)
			} else if r.Exact {
				prec = "1.000*"
			}
			fmt.Fprintf(w, "%-10s %5d %12s %12s %10.0f %9s %v\n",
				r.Method, r.K, fmtDur(r.AvgTime), fmtDur(r.MaxTime), r.AvgVisited, prec, r.Exact)
		}
	}
	fmt.Fprintln(w)
}

// PrintVisitedRatios renders the Figure 9 / Figure 13(b) bar data: average,
// minimum and maximum visited-node ratio per dataset.
func PrintVisitedRatios(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-10s %-10s %5s %12s %12s %12s\n",
		"dataset", "method", "k", "avg-ratio", "min-ratio", "max-ratio")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s %-10s %5d   ERROR: %s\n", r.Dataset, r.Method, r.K, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-10s %-10s %5d %12.3e %12.3e %12.3e\n",
			r.Dataset, r.Method, r.K, r.VisitedRatio, r.MinRatio, r.MaxRatio)
	}
	fmt.Fprintln(w)
}

// PrintPrecomputes lists offline costs so the "needs tens of hours of
// preprocessing" contrast is visible in the output.
func PrintPrecomputes(w io.Writer, dataset string, methods []Method) {
	var any bool
	for _, m := range methods {
		if m.PrecomputeTime > 0 {
			if !any {
				fmt.Fprintf(w, "-- %s offline precompute costs --\n", dataset)
				any = true
			}
			fmt.Fprintf(w, "%-10s %12s\n", m.Name, fmtDur(m.PrecomputeTime))
		}
	}
	if any {
		fmt.Fprintln(w)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
