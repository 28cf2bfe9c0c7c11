// Streaming: exact kNN served over HTTP while the graph never stops changing.
//
// The paper's opening complaint about global methods is that "the
// precomputing step is usually expensive and needs to be repeated whenever
// the graph changes". This example drives that point end to end through the
// serving stack: it boots the flosd server in-process on a live graph, then
// plays both roles over real HTTP — a writer POSTing batches of edge
// mutations to /v1/graph/edges while a reader keeps asking /v1/topk for exact
// answers. Every mutation batch publishes a new copy-on-write snapshot;
// queries pin whichever snapshot was current at admission, so writers never
// stall reads, and the result cache is invalidated surgically — an entry
// dies only if the batch touched its recorded read footprint.
//
// Run: go run ./examples/streaming
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"time"

	"flos"
	"flos/internal/server"
)

func main() {
	const n = 30_000
	base, err := flos.GenerateCommunity(n, 80_000, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Boot the serving stack in-process: live graph, query pool, HTTP mux —
	// exactly what `flosd -bin graph.bin -live` runs.
	live := flos.NewLiveGraph(base)
	srv := server.New(live, server.Config{
		Workers:      4,
		CacheEntries: 1024,
		// Quiet the per-request access log; the example narrates itself.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("live server on %s: %d nodes, %d edges\n\n", url, live.NumNodes(), live.NumEdges())

	state := uint64(7)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}

	type edgeOp struct {
		Op string      `json:"op"`
		U  flos.NodeID `json:"u"`
		V  flos.NodeID `json:"v"`
		W  float64     `json:"w,omitempty"`
	}
	type mutateResp struct {
		Epoch   uint64 `json:"epoch"`
		Applied int    `json:"applied"`
	}
	type topkResp struct {
		Exact     bool   `json:"exact"`
		Cached    bool   `json:"cached"`
		Visited   int    `json:"visited"`
		Epoch     uint64 `json:"epoch"`
		ElapsedUS int64  `json:"elapsed_us"`
		Results   []struct {
			Node  flos.NodeID `json:"node"`
			Score float64     `json:"score"`
		} `json:"results"`
	}

	postOps := func(ops []edgeOp) mutateResp {
		body, _ := json.Marshal(map[string]any{"ops": ops})
		resp, err := http.Post(url+"/v1/graph/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out mutateResp
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("POST /v1/graph/edges: %s", resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out
	}
	topk := func(q flos.NodeID) topkResp {
		resp, err := http.Get(fmt.Sprintf("%s/v1/topk?q=%d&k=8&measure=php", url, q))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out topkResp
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("GET /v1/topk: %s", resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out
	}

	query := flos.NodeID(1234)
	var mutations int
	var queryTime time.Duration
	var queries int
	for batch := 0; batch < 5; batch++ {
		// A burst of structural change: new transactions between random
		// accounts, posted as one atomic batch.
		ops := make([]edgeOp, 0, 200)
		for len(ops) < cap(ops) {
			u := flos.NodeID(next() % n)
			v := flos.NodeID(next() % n)
			if u == v {
				continue
			}
			ops = append(ops, edgeOp{Op: "set", U: u, V: v, W: 1 + float64(next()%5)})
		}
		mut := postOps(ops)
		mutations += mut.Applied

		start := time.Now()
		res := topk(query)
		queryTime += time.Since(start)
		queries++

		fmt.Printf("after %4d mutations (epoch %d): query in %6dus, visited %d nodes, exact=%v, cached=%v\n",
			mutations, mut.Epoch, res.ElapsedUS, res.Visited, res.Exact, res.Cached)
		fmt.Printf("  hitting-probability neighbors:")
		for _, r := range res.Results[:4] {
			fmt.Printf(" %d", r.Node)
		}
		fmt.Println()

		// Ask again: if the batch missed this query's read footprint, the
		// surgically-retained cache answers without recomputing.
		again := topk(query)
		fmt.Printf("  repeat on epoch %d: cached=%v\n", again.Epoch, again.Cached)
	}

	// The live metrics tell the invalidation story: how many cache entries
	// each batch carried across the epoch vs evicted.
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var met struct {
		Live struct {
			SnapshotsTotal int64 `json:"snapshots_total"`
			RowsCoWed      int64 `json:"rows_cowed"`
			Surgical       int64 `json:"invalidations_surgical"`
			Retained       int64 `json:"cache_retained"`
		} `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d exact queries over HTTP interleaved with %d mutations, avg %.2fms each\n",
		queries, mutations, float64(queryTime.Microseconds())/float64(queries)/1000)
	fmt.Printf("%d snapshots published, %d adjacency rows copy-on-write re-materialized (of %d total)\n",
		met.Live.SnapshotsTotal, met.Live.RowsCoWed, int64(live.NumNodes())*met.Live.SnapshotsTotal)
	fmt.Printf("cache entries: %d surgically invalidated, %d retained across epochs\n",
		met.Live.Surgical, met.Live.Retained)
	fmt.Println("no index rebuilt, no factorization redone, no clustering refreshed")
}
