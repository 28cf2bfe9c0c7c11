package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// The work ledger is the one file that pins how much work a search does:
// visited nodes, iterations, solver relaxations and the S-edge entries the
// shell bound reads, which repeat exactly, for fixed queries on generated
// graphs. Answers and certificates are pinned elsewhere (golden_test.go,
// driver_paths_test.go); a change that moves the expansion schedule, the
// solver's relaxation sequence or the shell bound's evaluation moves this
// file and nothing else about them. Zero tolerance: regenerate with
//
//	FLOS_UPDATE_GOLDEN=1 go test ./internal/core -run TestWorkLedger
//
// and say in CHANGES.md why the counts moved.

const workLedgerPath = "testdata/work_ledger.json"

type ledgerRow struct {
	Graph       string `json:"graph"`
	Seed        uint64 `json:"seed"`
	K           int    `json:"k"`
	Measure     string `json:"measure"`
	Query       int32  `json:"query"`
	Visited     int    `json:"visited"`
	Iterations  int    `json:"iterations"`
	Relaxations int    `json:"relaxations"`
	// ShellReads counts the S-edge entries the shell bound read (0 for
	// THT, which has none).
	ShellReads int `json:"shell_reads"`
	// Epsilon is the ModeEpsilon budget; 0 (omitted) is an exact search.
	Epsilon float64 `json:"epsilon,omitempty"`
}

func TestWorkLedger(t *testing.T) {
	var got []ledgerRow
	ws := NewWorkspace() // the rows read the PHP engine's shell counter
	recordEps := func(name string, seed uint64, g graph.Graph, kind measure.Kind, q graph.NodeID, k int, eps float64) {
		opt := DefaultOptions(kind, k)
		if eps > 0 {
			opt.Mode, opt.Epsilon = ModeEpsilon, eps
		}
		res, err := ws.TopK(context.Background(), g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		shellReads := 0
		if kind != measure.THT {
			shellReads = ws.php.shellReads
		}
		got = append(got, ledgerRow{name, seed, k, kind.String(), q, res.Visited, res.Iterations, res.Sweeps, shellReads, eps})
	}
	record := func(name string, seed uint64, g graph.Graph, kind measure.Kind, q graph.NodeID, k int) {
		recordEps(name, seed, g, kind, q, k, 0)
	}

	// Short searches on a mid-size community graph, every measure.
	community, err := gen.Community(20000, 60000, gen.DefaultCommunityParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range measure.Kinds() {
		for _, q := range []graph.NodeID{11, 4096} {
			record("community(20000,60000)", 42, community, kind, q, 10)
		}
	}

	// The mem-exact-heavy shape of go run ./bench: exact top-200 on
	// G(2000, 10000), where nearly every search saturates the graph and the
	// cost is re-solving. The first 16 requests of its seed-1 list: a seeded
	// permutation of the non-isolated nodes dealt to two clients, each
	// cycling PHP, RWR, THT.
	heavy, err := gen.Erdos(2000, 10000, 11)
	if err != nil {
		t.Fatal(err)
	}
	cycle := []measure.Kind{measure.PHP, measure.RWR, measure.THT}
	n := 0
	for _, v := range rand.New(rand.NewSource(1)).Perm(heavy.NumNodes()) {
		if n < 16 && heavy.NumNeighbors(graph.NodeID(v)) > 0 {
			record("erdos(2000,10000)", 11, heavy, cycle[n/2%3], graph.NodeID(v), 200)
			n++
		}
	}

	// THT where it is served: the first three THT requests of the seed-1
	// mem-mixed-light (and live-zipf-mutate graph) list of go run ./bench,
	// dealt as above on its 50,000-node community graph.
	served, err := gen.Community(50000, 250000, gen.CommunityParamsForDensity(10), 7)
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	for _, v := range rand.New(rand.NewSource(1)).Perm(served.NumNodes()) {
		if n < 11 && served.NumNeighbors(graph.NodeID(v)) > 0 { // requests 4, 5 and 10
			if cycle[n/2%3] == measure.THT {
				record("community(50000,250000)", 7, served, measure.THT, graph.NodeID(v), 10)
			}
			n++
		}
	}

	// The disk-eps-paged shape of go run ./bench at a fifth of its size:
	// ε = 1e-3 PHP and RWR top-10 on a structureless graph of the same mean
	// degree (20), the first eight non-isolated nodes of a seeded
	// permutation.
	eps, err := gen.Erdos(20000, 200000, 13)
	if err != nil {
		t.Fatal(err)
	}
	n = 0
	for _, v := range rand.New(rand.NewSource(1)).Perm(eps.NumNodes()) {
		if n < 8 && eps.NumNeighbors(graph.NodeID(v)) > 0 {
			for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
				recordEps("erdos(20000,200000)", 13, eps, kind, graph.NodeID(v), 10, 1e-3)
			}
			n++
		}
	}

	if os.Getenv("FLOS_UPDATE_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workLedgerPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("work ledger updated: %d rows", len(got))
		return
	}
	buf, err := os.ReadFile(workLedgerPath)
	if err != nil {
		t.Fatalf("missing ledger (run with FLOS_UPDATE_GOLDEN=1 to capture): %v", err)
	}
	var want []ledgerRow
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("ledger has %d rows, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("work moved: ledger %+v, run %+v (if meant, regenerate and say why in CHANGES.md)", want[i], got[i])
		}
	}
}
