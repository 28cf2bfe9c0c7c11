// Diskresident: the paper's Section 6.4 scenario — exact kNN queries
// against a graph that lives on disk, read one row per visited node.
//
// The example generates an R-MAT graph, writes it into the store format,
// reopens it with a deliberately tiny budget of pinned hub rows (so most of
// the graph is never in memory), and answers FLoS queries for PHP and RWR.
// Because FLoS only ever asks for the neighborhoods it visits, queries
// complete after reading a few hundred rows of a file that is orders of
// magnitude larger than the budget.
//
// Run: go run ./examples/diskresident
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"flos"
)

func main() {
	const (
		nodes = 500_000
		edges = 5_000_000
	)
	dir, err := os.MkdirTemp("", "flos-disk-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "graph.flos")

	fmt.Printf("generating R-MAT graph: %d nodes, %d edges...\n", nodes, edges)
	start := time.Now()
	g, err := flos.GenerateRMAT(nodes, edges, 0xF0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated in %s\n", time.Since(start))

	start = time.Now()
	if err := flos.CreateDiskGraph(path, g); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store written: %.1f MB in %s\n", float64(fi.Size())/1e6, time.Since(start))

	// Pick queries while the in-memory copy is still around, then drop it.
	var queries []flos.NodeID
	for v := flos.NodeID(0); len(queries) < 5; v++ {
		nbrs, _ := g.Neighbors(v)
		if len(nbrs) >= 2 {
			queries = append(queries, v)
		}
	}
	g = nil

	// 4 MiB of pinned rows against a ~130 MB file: most visits read the file.
	const cacheBudget = 4 << 20
	store, err := flos.OpenDiskGraph(path, cacheBudget)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	fmt.Printf("store reopened with %d MiB of pinned rows (%.1f%% of the file)\n\n",
		cacheBudget>>20, 100*float64(cacheBudget)/float64(fi.Size()))

	for _, m := range []flos.Measure{flos.PHP, flos.RWR} {
		for _, q := range queries[:3] {
			before := store.CacheStats()
			start := time.Now()
			res, err := flos.TopK(store, q, flos.DefaultOptions(m, 20))
			if err != nil {
				log.Fatal(err)
			}
			after := store.CacheStats()
			fmt.Printf("%-4v query %-8d: %8s, visited %5d/%d nodes (%.4f%%), %d file row reads, exact=%v\n",
				m, q, time.Since(start).Round(time.Microsecond), res.Visited, nodes,
				100*float64(res.Visited)/float64(nodes),
				after.Misses-before.Misses, res.Exact)
		}
	}

	st := store.CacheStats()
	fmt.Printf("\nrow totals: %d pinned hits, %d file reads, %.1f KB pinned (budget %d KB)\n",
		st.Hits, st.Misses, float64(st.ResidentBytes)/1e3, cacheBudget>>10)
	fmt.Println("exact answers from a disk-resident graph without ever loading it")
}
