package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/livegraph"
	"flos/internal/measure"
)

// numClients is the closed-loop client count: one per core of the sandbox
// the suite is sized for. Each client sends its next request only after the
// previous answer arrived, so a slower server receives less load.
const numClients = 2

// backendKind is how flosd holds the workload's graph.
type backendKind int

const (
	backendMem   backendKind = iota // flosd -bin
	backendStore                    // flosd -store, paged through diskgraph
	backendLive                     // flosd -bin -live, mutable through livegraph
)

// request is one generated operation: a /v1/topk read or a one-op
// /v1/graph/edges mutation.
type request struct {
	Mutate  bool
	Measure measure.Kind
	Q       graph.NodeID
	K       int
	Eps     float64 // 0 = exact mode, otherwise mode=epsilon with this budget
	Op      livegraph.EdgeOp
}

// measureParam is the measure= spelling of k on the HTTP API.
func measureParam(k measure.Kind) string { return strings.ToLower(k.String()) }

// target returns the HTTP method, path and body of the request.
func (r request) target() (method, path string, body []byte) {
	if r.Mutate {
		b, _ := json.Marshal(map[string]any{"ops": []map[string]any{{
			"op": r.Op.Op.String(), "u": r.Op.U, "v": r.Op.V, "w": r.Op.W,
		}}})
		return "POST", "/v1/graph/edges", b
	}
	path = "/v1/topk?q=" + strconv.Itoa(int(r.Q)) + "&k=" + strconv.Itoa(r.K) + "&measure=" + measureParam(r.Measure)
	if r.Eps > 0 {
		path += "&mode=epsilon&epsilon=" + strconv.FormatFloat(r.Eps, 'g', -1, 64)
	}
	return "GET", path, nil
}

// sizes are the knobs -smoke shrinks; a workload reads only the ones it uses.
type sizes struct {
	nodes     int
	edges     int64
	k         int
	perClient int // generated requests per client; a run stops early if a client exhausts them
	warmOps   int // leading requests of each client that are sent unrecorded before the timed window
	keys      int // live-zipf-mutate: distinct (node, measure) keys
}

// spec defines one workload. Graph generator seeds are constants: the
// workload seed drives only query choice, Zipf draws and mutation edges, so
// set-up cost and graph shape are the same on every run.
type spec struct {
	name    string
	why     string
	backend backendKind
	// pageSize and pageCacheMiB shape the store file and flosd's -pagecache on
	// a store backend. Apart from them and the backend selector
	// (-bin/-store/-live) flosd runs with its shipped default flags.
	pageSize     int
	pageCacheMiB int
	// tailPct pins the percentile tail_ms reports on this workload: the
	// highest of p90/p95/p99 that has minBeyond samples beyond it in a
	// default-length run and falls inside one request class's latency mass
	// rather than in the gap between two classes.
	tailPct float64
	// countPrefix is how many sampled misses of the traced pass the work
	// counts (visited, iterations, sweeps, page faults) are taken over: few
	// enough that every default-length traced pass reaches them, so the
	// counts repeat exactly for a seed. 0 = all samples (live workload, whose
	// sample set depends on timing anyway).
	countPrefix int
	full        sizes
	smoke       sizes
	graph       func(sz sizes) (*graph.MemGraph, error)
	// requests generates the per-client request lists from the workload seed.
	requests func(g *graph.MemGraph, sz sizes, seed int64) [][]request
}

const (
	seedCommunity = 7
	seedHeavy     = 11
	seedPaged     = 13
	seedLiveKeys  = 17
)

func communityGraph(sz sizes) (*graph.MemGraph, error) {
	return gen.Community(sz.nodes, sz.edges, gen.CommunityParamsForDensity(2*float64(sz.edges)/float64(sz.nodes)), seedCommunity)
}

var measures = [3]measure.Kind{measure.PHP, measure.RWR, measure.THT}

// queryNodes returns a seeded permutation of the nodes that can be queried
// without failing: an isolated node has no neighbors to rank, so its top-k is
// empty.
func queryNodes(g *graph.MemGraph, rng *rand.Rand) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range rng.Perm(g.NumNodes()) {
		if g.NumNeighbors(graph.NodeID(v)) > 0 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// distinctReads deals a seeded node permutation to the clients, each query
// node used once, so every key in a run is distinct and the result cache
// always misses and evicts. Each client cycles PHP, RWR, THT; rwrEvery > 0
// replaces that with PHP plus one RWR every rwrEvery-th request.
func distinctReads(g *graph.MemGraph, sz sizes, seed int64, eps float64, rwrEvery int) [][]request {
	perm := queryNodes(g, rand.New(rand.NewSource(seed)))
	out := make([][]request, numClients)
	for i := 0; i < min(sz.perClient*numClients, len(perm)); i++ {
		r := request{Q: perm[i], K: sz.k, Eps: eps, Measure: measures[i/numClients%len(measures)]}
		if rwrEvery > 0 {
			r.Measure = measure.PHP
			if i/numClients%rwrEvery == rwrEvery-1 {
				r.Measure = measure.RWR
			}
		}
		out[i%numClients] = append(out[i%numClients], r)
	}
	return out
}

// mutateEvery is the op period of mutations on live-zipf-mutate, per client.
const mutateEvery = 50

// edgeOwner assigns each undirected edge to one client, so the clients
// mutate disjoint edge sets and the final graph does not depend on how their
// writes interleaved.
func edgeOwner(u, v graph.NodeID) int { return int(min(u, v)) % numClients }

// zipfMutate generates the live workload: reads drawn Zipf(s=1.1) over a
// fixed set of keys, and every mutateEvery-th op of a client a one-op "set"
// on an existing edge the client owns — alternately next to a hot key (so
// invalidation hits cached entries) and uniform over the graph. The key set
// and its popularity ranks come from a constant seed, like the graph: under
// Zipf(1.1) the five hottest keys draw 40% of the reads and are recomputed
// after every mutation aimed at them, so which nodes they are decides what a
// run costs, and a key set drawn from the workload seed made runs of the same
// code differ by that. The workload seed drives the draws and the mutations.
func zipfMutate(g *graph.MemGraph, sz sizes, seed int64) [][]request {
	n := g.NumNodes()
	perm := queryNodes(g, rand.New(rand.NewSource(seedLiveKeys)))
	keys := make([]request, sz.keys)
	for i := range keys {
		keys[i] = request{Q: perm[i%len(perm)], Measure: measures[i%len(measures)], K: sz.k}
	}
	out := make([][]request, numClients)
	for c := range out {
		crng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
		zipf := rand.NewZipf(crng, 1.1, 1, uint64(sz.keys-1))
		ownedEdge := func(u graph.NodeID) (graph.NodeID, bool) {
			nbrs, _ := g.Neighbors(u)
			for off, start := 0, crng.Intn(max(1, len(nbrs))); off < len(nbrs); off++ {
				if v := nbrs[(start+off)%len(nbrs)]; v != u && edgeOwner(u, v) == c {
					return v, true
				}
			}
			return 0, false
		}
		muts := 0
		for i := 0; i < sz.perClient; i++ {
			if i%mutateEvery != mutateEvery-1 {
				out[c] = append(out[c], keys[zipf.Uint64()])
				continue
			}
			// Hot-aimed and uniform mutations alternate; either falls back to
			// scanning forward for a node with an edge this client owns.
			u := graph.NodeID(crng.Intn(n))
			if muts%2 == 0 {
				u = keys[zipf.Uint64()].Q
			}
			muts++
			v, ok := ownedEdge(u)
			for !ok {
				u = (u + 1) % graph.NodeID(n)
				v, ok = ownedEdge(u)
			}
			out[c] = append(out[c], request{Mutate: true, Op: livegraph.EdgeOp{
				Op: livegraph.OpSet, U: u, V: v, W: 0.5 + float64(crng.Intn(1000))/500,
			}})
		}
	}
	return out
}

var specs = []spec{
	{
		name:    "mem-mixed-light",
		why:     "Short exact searches (60-3,000 visited, 0.3-3 ms) with every key distinct: serving-stack overhead is a large share of a PHP round trip, and diskgraph, mutation and cache hits do nothing.",
		backend: backendMem, tailPct: 0.90, countPrefix: 256,
		full:  sizes{nodes: 50000, edges: 250000, k: 10, perClient: 25000, warmOps: 400},
		smoke: sizes{nodes: 2000, edges: 10000, k: 10, perClient: 1000, warmOps: 50},
		graph: communityGraph,
		requests: func(g *graph.MemGraph, sz sizes, seed int64) [][]request {
			return distinctReads(g, sz, seed, 0, 0)
		},
	},
	{
		name:    "mem-exact-heavy",
		why:     "Exact top-200 on a 2,000-node random graph: every search expands nearly the whole graph over hundreds of iterations, so >95% of time is core and core/kernel and serving overhead is under 1%.",
		backend: backendMem, tailPct: 0.90, countPrefix: 16,
		full:  sizes{nodes: 2000, edges: 10000, k: 200, perClient: 1000, warmOps: 10},
		smoke: sizes{nodes: 300, edges: 1500, k: 30, perClient: 150, warmOps: 5},
		graph: func(sz sizes) (*graph.MemGraph, error) { return gen.Erdos(sz.nodes, sz.edges, seedHeavy) },
		requests: func(g *graph.MemGraph, sz sizes, seed int64) [][]request {
			return distinctReads(g, sz, seed, 0, 0)
		},
	},
	{
		name:    "disk-eps-paged",
		why:     "Epsilon-mode queries on a low-locality graph paged through a cache of 8% of the file: diskgraph dominates query time and two clients contend on the page cache. The only epsilon-mode workload.",
		backend: backendStore, pageSize: 8192, pageCacheMiB: 2, tailPct: 0.95, countPrefix: 32,
		full:  sizes{nodes: 100000, edges: 1000000, k: 10, perClient: 20000, warmOps: 25},
		smoke: sizes{nodes: 3000, edges: 30000, k: 10, perClient: 1000, warmOps: 20},
		graph: func(sz sizes) (*graph.MemGraph, error) { return gen.Erdos(sz.nodes, sz.edges, seedPaged) },
		requests: func(g *graph.MemGraph, sz sizes, seed int64) [][]request {
			return distinctReads(g, sz, seed, 0.001, 9)
		},
	},
	{
		name:    "live-zipf-mutate",
		why:     "Zipf reads over 4,000 keys against the 1,024-entry result cache with a mutation every 50th op: reads are the cache-hit path, writes run Apply, surgical invalidation and re-certification.",
		backend: backendLive, tailPct: 0.90,
		full:     sizes{nodes: 50000, edges: 250000, k: 10, perClient: 150000, keys: 4000, warmOps: 2500},
		smoke:    sizes{nodes: 2000, edges: 10000, k: 10, perClient: 5000, keys: 1500, warmOps: 300},
		graph:    communityGraph,
		requests: zipfMutate,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputsHash is the SHA-256 of every generated request in client order:
// method, path and body, one per line. Two runs with equal hashes sent the
// same inputs.
func inputsHash(lists [][]request) string {
	h := sha256.New()
	for c, list := range lists {
		fmt.Fprintf(h, "client %d\n", c)
		for _, r := range list {
			m, p, b := r.target()
			fmt.Fprintf(h, "%s %s %s\n", m, p, b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
