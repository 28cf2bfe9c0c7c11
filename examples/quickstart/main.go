// Quickstart: the paper's running example, end to end.
//
// Builds the 8-node graph of Figure 1(a), runs FLoS for every supported
// proximity measure, replays the Figure 4 / Table 3 bound trace showing how
// the top-2 under PHP is certified after four local expansions with one node
// never visited, and then demonstrates the two relaxed serving modes on a
// larger generated graph: ε-certified early stopping and anytime answers
// under a deadline, both read through Result.Certification.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flos"
)

func main() {
	// Figure 1(a), 0-indexed (paper node i is i-1 here): 9 unit-weight edges.
	b := flos.NewGraphBuilder(8)
	edges := [][2]flos.NodeID{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 5}, {3, 6}, {4, 5}, {6, 7},
	}
	for _, e := range edges {
		if err := b.AddUnitEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	const query = flos.NodeID(0) // the paper's node 1

	// One reusable Querier per measure: a session holds warm engine state,
	// so issuing more queries through it costs almost no allocation. (For a
	// single query, flos.TopK does the same work.)
	fmt.Println("Top-3 nearest neighbors of node 1 under each measure:")
	for _, m := range []flos.Measure{flos.PHP, flos.EI, flos.DHT, flos.THT, flos.RWR} {
		qr, err := flos.NewQuerier(g, flos.DefaultOptions(m, 3))
		if err != nil {
			log.Fatal(err)
		}
		res, err := qr.TopK(context.Background(), query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4v:", m)
		for _, r := range res.TopK {
			fmt.Printf("  node %d (%.4f)", r.Node+1, r.Score)
		}
		fmt.Printf("   [visited %d/8 nodes]\n", res.Visited)
	}

	// The Figure 4 trace: PHP with c = 0.8, k = 2, plain bounds. A
	// SnapshotCollector on Options.Tracer captures the full per-iteration
	// bound snapshots without perturbing the expansion schedule.
	fmt.Println("\nBound trace (PHP, c=0.8, k=2) — the paper's Figure 4 / Table 3:")
	sc := &flos.SnapshotCollector{}
	opt := flos.Options{
		K:       2,
		Measure: flos.PHP,
		Params:  flos.Params{C: 0.8, L: 10, Tau: 1e-8, MaxIter: 100000},
		Tracer:  sc,
	}
	res, err := flos.TopK(g, query, opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range sc.Events {
		fmt.Printf("  iteration %d: expand node %d, newly visited:", ev.Iteration, ev.Expanded+1)
		for _, v := range ev.NewNodes {
			fmt.Printf(" %d", v+1)
		}
		fmt.Println()
		for i, v := range ev.Nodes {
			if v == query {
				continue
			}
			fmt.Printf("    node %d: [%.4f, %.4f]\n", v+1, ev.Lower[i], ev.Upper[i])
		}
	}
	fmt.Printf("top-2 certified after %d iterations with %d/8 nodes visited:", res.Iterations, res.Visited)
	for _, r := range res.TopK {
		fmt.Printf(" node %d", r.Node+1)
	}
	fmt.Println("\n(node 8 was never visited — its proximity is provably below the top-2)")

	// Serving modes on a graph big enough for the modes to matter: exact
	// (the default) vs ε-certified early stopping vs anytime-under-deadline.
	// Every Result carries a Certification block stating what was proved.
	big, err := flos.GenerateCommunity(20000, 100000, 42)
	if err != nil {
		log.Fatal(err)
	}
	const bigQuery = flos.NodeID(7)

	exactOpt := flos.DefaultOptions(flos.RWR, 10)
	exactRes, err := flos.TopK(big, bigQuery, exactOpt)
	if err != nil {
		log.Fatal(err)
	}

	epsOpt := exactOpt
	epsOpt.Mode = flos.ModeEpsilon
	epsOpt.Epsilon = 1e-3
	epsRes, err := flos.TopK(big, bigQuery, epsOpt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nServing modes (RWR, k=10, community graph n=20000):")
	fmt.Printf("  exact  : visited %6d, %4d iterations, certified=%v, gap=%.2e\n",
		exactRes.Visited, exactRes.Iterations, exactRes.Certification.Certified, exactRes.Certification.Gap)
	fmt.Printf("  ε=1e-3 : visited %6d, %4d iterations, certified=%v, gap=%.2e (≤ ε)\n",
		epsRes.Visited, epsRes.Iterations, epsRes.Certification.Certified, epsRes.Certification.Gap)
	if len(epsRes.Certification.Bounds) > 0 {
		nb := epsRes.Certification.Bounds[0]
		fmt.Printf("  ε top-1: node %d score interval [%.6f, %.6f]\n", nb.Node, nb.Lower, nb.Upper)
	}

	// Anytime: an expiring deadline no longer aborts the query — it returns
	// the current top-k with Certified=false and the gap still open.
	anyOpt := exactOpt
	anyOpt.Mode = flos.ModeAnytime
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
	defer cancel()
	anyRes, err := flos.TopKCtx(ctx, big, bigQuery, anyOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  anytime: visited %6d, %4d iterations, certified=%v after 200µs deadline (%d candidates in hand)\n",
		anyRes.Visited, anyRes.Iterations, anyRes.Certification.Certified, len(anyRes.TopK))
}
