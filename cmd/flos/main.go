// Command flos answers a single top-k proximity query against a graph file.
//
// Usage:
//
//	flos -graph web.txt -q 42 -k 10 -measure rwr
//	flos -store big.flos -cache 128 -q 42 -k 20 -measure php
//	flos -replay slow.json [-replay-id req-7]
//
// Graph inputs: a SNAP-style text edge list (-graph), the binary CSR format
// (-bin), or a disk store produced by flosgen/CreateDiskGraph (-store).
//
// -certify audits the answer against a full global-iteration solve and
// exits 1 when it is not an exact top-k; with -unified it audits both
// rankings and names the one that failed.
//
// -replay renders a flight-recorder dump (saved from a flosd instance's
// /debug/flos/slow or /debug/flos/flightrec endpoint) as the convergence
// table a live -trace run prints — offline slow-query analysis without the
// graph the query ran against. Records from a live-graph server carry their
// snapshot epoch; replay flags records behind -replay-epoch (or the newest
// epoch in the dump) as stale, since their trajectories describe an older
// topology.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"flos"
	"flos/internal/core"
	"flos/internal/graph"
	"flos/internal/measure"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "text edge-list file (u v [w] per line)")
		binPath   = flag.String("bin", "", "binary CSR graph file")
		storePath = flag.String("store", "", "disk-resident store file")
		cacheMB   = flag.Int64("cache", 64, "pinned-row budget for -store, MiB")
		q         = flag.Int("q", -1, "query node id")
		k         = flag.Int("k", 10, "number of neighbors")
		meas      = flag.String("measure", "php", "php | ei | dht | tht | rwr")
		c         = flag.Float64("c", 0.5, "decay factor / restart probability")
		horizon   = flag.Int("L", 10, "THT horizon")
		tau       = flag.Float64("tau", 1e-5, "iteration tolerance")
		trace     = flag.Bool("trace", false, "print the per-iteration convergence table")
		unified   = flag.Bool("unified", false, "answer both PHP-family and RWR rankings in one search")
		certify   = flag.Bool("certify", false, "audit the result against a full global-iteration solve")
		replay    = flag.String("replay", "", "replay a flight-recorder dump file (JSON from /debug/flos/slow) instead of querying")
		replayID  = flag.String("replay-id", "", "with -replay: render only the record with this request ID")
		replayEp  = flag.Uint64("replay-epoch", 0, "with -replay: audit records against this live-graph epoch (0 = newest epoch in the dump)")
	)
	flag.Parse()

	if *replay != "" {
		if err := replayDump(*replay, *replayID, *replayEp); err != nil {
			fatal(err)
		}
		return
	}

	kind, err := measure.ParseKind(*meas)
	if err != nil {
		fatal(err)
	}
	var g flos.Graph
	switch {
	case *graphPath != "":
		mg, err := flos.LoadEdgeList(*graphPath)
		if err != nil {
			fatal(err)
		}
		g = mg
	case *binPath != "":
		mg, err := flos.LoadBinary(*binPath)
		if err != nil {
			fatal(err)
		}
		g = mg
	case *storePath != "":
		dg, err := flos.OpenDiskGraph(*storePath, *cacheMB<<20)
		if err != nil {
			fatal(err)
		}
		defer dg.Close()
		g = dg
	default:
		fatal(fmt.Errorf("one of -graph, -bin, -store is required"))
	}
	if *q < 0 || *q >= g.NumNodes() {
		fatal(fmt.Errorf("query -q %d outside [0,%d)", *q, g.NumNodes()))
	}

	opt := flos.DefaultOptions(kind, *k)
	opt.Params.C = *c
	opt.Params.L = *horizon
	opt.Params.Tau = *tau
	var tc *flos.TraceCollector
	if *trace {
		tc = &flos.TraceCollector{}
		opt.Tracer = tc
	}

	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	if *unified {
		start := time.Now()
		res, err := flos.UnifiedTopK(g, flos.NodeID(*q), opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("unified query %d, k=%d: %s, visited %d nodes, exact=%v\n",
			*q, *k, time.Since(start), res.Visited, res.Exact)
		fmt.Println("PHP / EI / DHT ranking:")
		for i, r := range res.TopK {
			fmt.Printf("%3d. node %-10d php-score %.6g\n", i+1, r.Node, r.Score)
		}
		fmt.Println("RWR ranking:")
		for i, r := range res.RWR {
			fmt.Printf("%3d. node %-10d w·php-score %.6g\n", i+1, r.Node, r.Score)
		}
		if tc != nil {
			printTrace(tc.Iters)
		}
		if *certify {
			start = time.Now()
			if err := certifyUnified(g, flos.NodeID(*q), res, opt.Params, 1e-7); err != nil {
				fatal(err)
			}
			fmt.Printf("both rankings certified exact against global iteration in %s\n", time.Since(start))
		}
		return
	}

	start := time.Now()
	res, err := flos.TopK(g, flos.NodeID(*q), opt)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("query %d, measure %s, k=%d: %s, visited %d nodes (%.4f%%), %d iterations, exact=%v\n",
		*q, kind, *k, elapsed, res.Visited,
		100*float64(res.Visited)/float64(g.NumNodes()), res.Iterations, res.Exact)
	for i, r := range res.TopK {
		fmt.Printf("%3d. node %-10d score %.6g\n", i+1, r.Node, r.Score)
	}
	if tc != nil {
		printTrace(tc.Iters)
	}
	if *certify {
		start = time.Now()
		if err := flos.Certify(g, flos.NodeID(*q), res, kind, opt.Params, 1e-7); err != nil {
			fatal(err)
		}
		fmt.Printf("certified exact against global iteration in %s\n", time.Since(start))
	}
}

// certifyUnified audits both rankings of a unified answer against a full
// global-iteration solve: TopK as PHP at decay p.C, and RWR as RWR at
// restart 1 − p.C, the pairing Theorem 6 gives the one PHP engine that
// ranked both. The error names the family that failed.
func certifyUnified(g graph.Graph, q graph.NodeID, res *core.UnifiedResult, p measure.Params, eps float64) error {
	rwr := p
	rwr.C = 1 - p.C
	for _, fam := range []struct {
		name string
		kind measure.Kind
		p    measure.Params
		topK []measure.Ranked
	}{
		{"PHP-family", measure.PHP, p, res.TopK},
		{"RWR", measure.RWR, rwr, res.RWR},
	} {
		if err := core.Certify(g, q, &core.Result{TopK: fam.topK}, fam.kind, fam.p, eps); err != nil {
			return fmt.Errorf("%s ranking: %w", fam.name, err)
		}
	}
	return nil
}

// printTrace renders the Tracer trajectory as a convergence table: one row
// per iteration with the visited/boundary sizes, the expansion batch, the
// two competing bound keys, and the certification gap that the stopping
// rule drives through zero (gap >= 0 on the final, certified row).
func printTrace(iters []flos.IterStats) {
	fmt.Println("convergence trace:")
	fmt.Printf("%5s %8s %8s %6s %5s %13s %13s %11s %5s %10s %9s %9s\n",
		"iter", "|S|", "bndry", "batch", "new", "kth-bound", "rest-bound", "gap", "cert",
		"expand-us", "solve-us", "cert-us")
	for _, it := range iters {
		kth, rest, gap := "-", "-", "-"
		if it.GapValid {
			kth = fmt.Sprintf("%.6g", it.KthBound)
			rest = fmt.Sprintf("%.6g", it.RestBound)
			gap = fmt.Sprintf("%+.4g", it.Gap)
		}
		cert := ""
		if it.Certified {
			cert = "yes"
		}
		fmt.Printf("%5d %8d %8d %6d %5d %13s %13s %11s %5s %10d %9d %9d\n",
			it.Iteration, it.Visited, it.Boundary, it.Batch, it.NewNodes,
			kth, rest, gap, cert,
			it.ExpandNS/1000, it.SolveNS/1000, it.CertifyNS/1000)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flos:", err)
	os.Exit(1)
}
