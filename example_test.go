package flos_test

import (
	"fmt"
	"log"

	"flos"
)

// ExampleTopK answers an exact top-2 RWR query on the paper's Figure 1(a)
// example graph.
func ExampleTopK() {
	g := flos.MustPaperExample()
	res, err := flos.TopK(g, 0, flos.DefaultOptions(flos.RWR, 2))
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range res.TopK {
		fmt.Printf("%d. node %d\n", i+1, r.Node+1) // +1: paper numbering
	}
	fmt.Println("exact:", res.Exact)
	// Output:
	// 1. node 3
	// 2. node 2
	// exact: true
}

// ExampleTopK_trace replays the paper's Table 3: which nodes each local
// expansion visits under PHP with c = 0.8. The shell bound certifies the
// top-2 after the third expansion, one before the paper's trace.
func ExampleTopK_trace() {
	g := flos.MustPaperExample()
	sc := &flos.SnapshotCollector{}
	opt := flos.Options{
		K:       2,
		Measure: flos.PHP,
		Params:  flos.Params{C: 0.8, L: 10, Tau: 1e-8, MaxIter: 100000},
		Tracer:  sc,
	}
	if _, err := flos.TopK(g, 0, opt); err != nil {
		log.Fatal(err)
	}
	for _, ev := range sc.Events {
		fmt.Printf("iteration %d visits:", ev.Iteration)
		for _, v := range ev.NewNodes {
			fmt.Printf(" %d", v+1)
		}
		fmt.Println()
	}
	// Output:
	// iteration 1 visits: 2 3
	// iteration 2 visits: 4
	// iteration 3 visits: 5
}

// ExampleUnifiedTopK certifies the PHP-family and RWR rankings with one
// shared search.
func ExampleUnifiedTopK() {
	g := flos.MustPaperExample()
	res, err := flos.UnifiedTopK(g, 0, flos.DefaultOptions(flos.PHP, 2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("PHP family:")
	for _, r := range res.TopK {
		fmt.Printf(" %d", r.Node+1)
	}
	fmt.Print("\nRWR:       ")
	for _, r := range res.RWR {
		fmt.Printf(" %d", r.Node+1)
	}
	fmt.Println()
	// Output:
	// PHP family: 2 3
	// RWR:        3 2
}

// ExampleExact runs the brute-force global iteration the paper calls GI.
func ExampleExact() {
	g := flos.MustPaperExample()
	scores, _, err := flos.Exact(g, 0, flos.PHP, flos.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PHP of node 2: %.4f\n", scores[1])
	// Output:
	// PHP of node 2: 0.2656
}
