// Recommend: "customers who bought this also bought" over a co-purchase
// graph — the Amazon scenario motivating the paper's AZ dataset.
//
// Products are nodes; an edge means two products were bought together, with
// the weight counting co-purchases. Random walk with restart is the
// standard relatedness measure here, and exactness matters: a recommender
// that silently drops the true second-best related product loses revenue.
//
// The example generates an AZ-like scale-free co-purchase graph, answers a
// handful of RWR queries through one reusable flos.Querier session (the
// serving-shaped hot path: warm engine workspaces between queries),
// cross-checks one query against brute force, and reports how little of
// the catalog each query touched.
//
// Run: go run ./examples/recommend
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flos"
)

func main() {
	const (
		products    = 120_000
		coPurchases = 340_000 // same density as the paper's AZ graph
	)
	fmt.Printf("building co-purchase graph: %d products, %d pair edges...\n", products, coPurchases)
	// Community-structured, like real co-purchase data: products cluster
	// into categories with rare cross-category links (see internal/gen).
	g, err := flos.GenerateCommunity(products, coPurchases, 0xA2)
	if err != nil {
		log.Fatal(err)
	}

	// A handful of "currently viewed" products with non-trivial
	// neighborhoods.
	var queries []flos.NodeID
	for v := flos.NodeID(0); v < flos.NodeID(products) && len(queries) < 5; v++ {
		nbrs, _ := g.Neighbors(v)
		if len(nbrs) >= 3 {
			queries = append(queries, v)
		}
	}

	// A recommender answers queries continuously, so hold a session: the
	// Querier keeps engine workspaces warm between queries and is safe for
	// concurrent TopK calls.
	opt := flos.DefaultOptions(flos.RWR, 10)
	qr, err := flos.NewQuerier(g, opt)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	visitedSum := 0
	for _, q := range queries {
		res, err := qr.TopK(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		visitedSum += res.Visited
		fmt.Printf("\nproduct %d — top related products (touched %d/%d = %.3f%% of catalog):\n",
			q, res.Visited, products,
			100*float64(res.Visited)/float64(products))
		for i, r := range res.TopK {
			fmt.Printf("  %2d. product %-8d relatedness %.3g\n", i+1, r.Node, r.Score)
		}
	}
	totalTime := time.Since(start)

	// Cross-check the first query against brute force over the whole graph.
	fmt.Println("\ncross-checking the first query against full-graph iteration...")
	q := queries[0]
	start = time.Now()
	scores, sweeps, err := flos.Exact(g, q, flos.RWR, opt.Params)
	if err != nil {
		log.Fatal(err)
	}
	bruteTime := time.Since(start)
	res, err := qr.TopK(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	want := map[flos.NodeID]bool{}
	type pair struct {
		v flos.NodeID
		s float64
	}
	best := make([]pair, 0, 10)
	for v, s := range scores {
		if flos.NodeID(v) == q {
			continue
		}
		best = append(best, pair{flos.NodeID(v), s})
	}
	// Partial selection of the exact top-10.
	for i := 0; i < 10; i++ {
		m := i
		for j := i + 1; j < len(best); j++ {
			if best[j].s > best[m].s {
				m = j
			}
		}
		best[i], best[m] = best[m], best[i]
		want[best[i].v] = true
	}
	match := 0
	for _, r := range res.TopK {
		if want[r.Node] {
			match++
		}
	}
	fmt.Printf("brute force: %d sweeps over %d edges in %s\n", sweeps, g.NumEdges(), bruteTime)
	fmt.Printf("agreement: %d/10 (FLoS result is provably exact; disagreements can only be exact score ties)\n", match)
	fmt.Printf("%d queries: %.2fms/query touching %.3f%% of the catalog\n",
		len(queries),
		float64(totalTime.Microseconds())/float64(len(queries))/1000,
		100*float64(visitedSum)/float64(len(queries))/float64(products))
}
