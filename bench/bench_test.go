package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Same seed, same request lists byte for byte; another seed, other lists.
func TestRequestListsFollowSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		g, err := sp.graph(sp.smoke)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		a, b, c := sp.requests(g, sp.smoke, 1), sp.requests(g, sp.smoke, 1), sp.requests(g, sp.smoke, 2)
		if len(a) != numClients || len(a[0]) == 0 {
			t.Fatalf("%s: %d client lists, first has %d requests", sp.name, len(a), len(a[0]))
		}
		if inputsHash(a) != inputsHash(b) {
			t.Errorf("%s: seed 1 generated two different request lists", sp.name)
		}
		if inputsHash(a) == inputsHash(c) {
			t.Errorf("%s: seeds 1 and 2 generated the same request lists", sp.name)
		}
	}
}

// On the workloads that promise distinct keys no key repeats, so the result
// cache cannot hit; on the live workload the clients' mutations stay on the
// edges each owns.
func TestRequestListInvariants(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		g, err := sp.graph(sp.smoke)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		muts := 0
		for c, list := range sp.requests(g, sp.smoke, 3) {
			for _, r := range list {
				_, path, _ := r.target()
				if r.Mutate {
					muts++
					if edgeOwner(r.Op.U, r.Op.V) != c {
						t.Fatalf("%s: client %d mutates edge (%d,%d) owned by client %d", sp.name, c, r.Op.U, r.Op.V, edgeOwner(r.Op.U, r.Op.V))
					}
					continue
				}
				if sp.backend != backendLive && seen[path] {
					t.Fatalf("%s: key %s repeats", sp.name, path)
				}
				seen[path] = true
			}
		}
		if want := sp.backend == backendLive; (muts > 0) != want {
			t.Errorf("%s: %d mutations, want some = %v", sp.name, muts, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		sorted     []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{hundred, 0.50, 50, 50},
		{hundred, 0.90, 90, 10},
		{hundred, 0.95, 95, 5},
		{hundred, 0.99, 99, 1},
		{hundred, 1.00, 100, 0},
		{[]float64{7}, 0.99, 7, 0},
		{[]float64{1, 2, 3}, 0.50, 2, 1},
	} {
		got, beyond := percentile(tc.sorted, tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(n=%d, %v) = %v with %d beyond, want %v with %d", len(tc.sorted), tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
}

// The tail percentile is the highest of p99/p95/p90 with at least ten
// samples beyond it.
func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {50, 0}, {99, 0},
		{100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95},
		{1000, 0.99}, {30000, 0.99},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := highestTail(tc.n); p > 0 {
			sorted := make([]float64, tc.n)
			if _, beyond := percentile(sorted, p); beyond < minBeyond {
				t.Errorf("highestTail(%d) = %v leaves only %d samples beyond", tc.n, p, beyond)
			}
		}
	}
}

// Every workload's pinned tail percentile is one the default-length run
// supports; the counts of computed reads are rounded down from the lowest
// seen in ten default-length runs of each.
func TestPinnedTailSupported(t *testing.T) {
	typicalReads := map[string]int{"mem-mixed-light": 18000, "mem-exact-heavy": 600, "disk-eps-paged": 850, "live-zipf-mutate": 3800}
	for i := range specs {
		sp := &specs[i]
		if max := highestTail(typicalReads[sp.name]); sp.tailPct > max {
			t.Errorf("%s pins p%.0f but %d reads support at most p%.0f", sp.name, 100*sp.tailPct, typicalReads[sp.name], 100*max)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the acceptance check of the benchmark uses.
func TestQuartilesAndSpread(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three values = %v, want range/median = 0.2", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// Throughput is the median slice's, with an operation that spans a slice
// edge shared out by duration: steady traffic reads as its rate, and one
// operation that holds a client for seconds does not move it.
func TestThroughput(t *testing.T) {
	steady := func(c *[]opRecord, from, to, each time.Duration) {
		for at := from; at < to; at += each {
			*c = append(*c, opRecord{at: at, latency: each})
		}
	}
	ms := time.Millisecond
	dr := &driveResult{window: 5 * time.Second, ops: make([][]opRecord, 2)}
	steady(&dr.ops[0], 0, 5000*ms, 40*ms) // 25/s; 40 ms does not divide a slice, so operations straddle edges
	steady(&dr.ops[1], 0, 5000*ms, 100*ms)
	if got := throughput(dr); math.Abs(got-35) > 1e-9 {
		t.Errorf("throughput of 25/s + 10/s = %v, want 35", got)
	}
	// Client 1 is held for 1.5 s by one operation: slices 1 and 2 lose its
	// share, the median slice does not.
	dr.ops[1] = nil
	steady(&dr.ops[1], 0, 1000*ms, 100*ms)
	dr.ops[1] = append(dr.ops[1], opRecord{at: 1000 * ms, latency: 1500 * ms})
	steady(&dr.ops[1], 2500*ms, 5000*ms, 100*ms)
	if got := throughput(dr); math.Abs(got-35) > 1e-9 {
		t.Errorf("throughput with one 1.5 s operation = %v, want 35", got)
	}
	// A failed operation completes no work; one in flight when the window
	// closes counts for the part inside it.
	dr = &driveResult{window: time.Second, ops: [][]opRecord{{
		{at: 0, latency: 500 * ms}, {at: 500 * ms, latency: 250 * ms, failure: "x"}, {at: 750 * ms, latency: 500 * ms},
	}}}
	if got := throughput(dr); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("throughput = %v, want 1 + 0.5 operations in the one-second window", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	for _, tc := range []struct {
		name  string
		rungs [numRungs]time.Duration
		want  [numRungs]time.Duration
	}{
		{"miss on a paged backend",
			[numRungs]time.Duration{1000 * us, 800 * us, 700 * us, 650 * us, 600 * us, 100 * us},
			[numRungs]time.Duration{200 * us, 100 * us, 50 * us, 50 * us, 500 * us, 100 * us}},
		{"miss in memory: backend rung equals memory rung",
			[numRungs]time.Duration{500 * us, 400 * us, 350 * us, 320 * us, 300 * us, 300 * us},
			[numRungs]time.Duration{100 * us, 50 * us, 30 * us, 20 * us, 0, 300 * us}},
		{"cache hit: the pool rung is all qserve",
			[numRungs]time.Duration{200 * us, 60 * us, 30 * us, 2 * us, 0, 0},
			[numRungs]time.Duration{140 * us, 30 * us, 28 * us, 2 * us, 0, 0}},
		{"mutation: Apply sits on the backend rung",
			[numRungs]time.Duration{2000 * us, 1500 * us, 1400 * us, 1300 * us, 800 * us, 0},
			[numRungs]time.Duration{500 * us, 100 * us, 100 * us, 500 * us, 800 * us, 0}},
	} {
		got := selfTimes(tc.rungs)
		if got != tc.want {
			t.Errorf("%s: selfTimes = %v, want %v", tc.name, got, tc.want)
		}
		var sum time.Duration
		for _, d := range got {
			sum += d
		}
		if sum != tc.rungs[rungHTTP] {
			t.Errorf("%s: self times sum to %v, round trip is %v", tc.name, sum, tc.rungs[rungHTTP])
		}
	}
}

func TestSumOverWall(t *testing.T) {
	us := time.Microsecond
	hit := ladderSample{hit: true, rungs: [numRungs]time.Duration{200 * us, 60 * us, 30 * us, 2 * us, 0, 0}}
	miss := ladderSample{rungs: [numRungs]time.Duration{3000 * us, 2800 * us, 2700 * us, 2650 * us, 2600 * us, 2600 * us}}
	if got := sumOverWall([]ladderSample{hit, hit, hit, miss, miss}); math.Abs(got-1) > 1e-9 {
		t.Errorf("sumOverWall of two clean classes = %v, want 1", got)
	}
	// When the time moves between layers from request to request, each
	// layer's median misses it and the medians no longer add up.
	ms := 1000 * us
	moving := []ladderSample{
		{rungs: [numRungs]time.Duration{ms, 0, 0, 0, 0, 0}},
		{rungs: [numRungs]time.Duration{ms, ms, 0, 0, 0, 0}},
		{rungs: [numRungs]time.Duration{ms, ms, ms, 0, 0, 0}},
	}
	if got := sumOverWall(moving); got != 0 {
		t.Errorf("sumOverWall with the time in a different layer on every request = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	runs := func(median, spread float64) metricRuns { return metricRuns{Median: median, Spread: spread} }
	for _, tc := range []struct {
		name   string
		a, b   metricRuns
		better string
		bound  float64
		want   string
	}{
		{"latency within bound", runs(10, 0.02), runs(10.5, 0.02), "lower", 0.10, verdictOK},
		{"latency beyond bound", runs(10, 0.02), runs(11.5, 0.02), "lower", 0.10, verdictWorse},
		{"latency better", runs(10, 0.02), runs(5, 0.02), "lower", 0.10, verdictOK},
		{"throughput beyond bound", runs(1000, 0.02), runs(850, 0.02), "higher", 0.10, verdictWorse},
		{"throughput better", runs(1000, 0.02), runs(2000, 0.02), "higher", 0.10, verdictOK},
		{"spread wider than bound", runs(10, 0.30), runs(10.5, 0.02), "lower", 0.10, verdictUnresolved},
		{"worse even with wide spread", runs(10, 0.30), runs(20, 0.30), "lower", 0.10, verdictWorse},
		{"zero tolerance", runs(10, 0), runs(10.001, 0), "lower", 0, verdictWorse},
		{"no baseline", runs(0, 0), runs(1, 0), "lower", 0.10, verdictUnresolved},
	} {
		if _, got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json names the same command, workloads and metrics as the code.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bf.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q", got)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads, code has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d = %q (%q), code has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit is 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}

// The -smoke scale drives the whole pipeline end to end on every workload:
// build, subprocess start, load, scrape, correctness gates, traced pass,
// span file, result JSON, and -compare of the result against itself.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("starts flosd subprocesses")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	// Inside the module (bench/out is ignored by git), not in the system temp
	// directory: the suite promises to write only inside its checkout.
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	outDir, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(outDir)
	outPath := filepath.Join(outDir, "result.json")
	if err := suite(root, outDir, outPath, 1, smokeSeconds, true, 1); err != nil {
		t.Fatal(err)
	}
	sr, err := readSuiteResult(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Env["go_version"] == nil || sr.Commit == "" || sr.Clients != numClients || sr.Seed != 1 {
		t.Errorf("result is missing its stamp: env=%v commit=%q clients=%d seed=%d", sr.Env, sr.Commit, sr.Clients, sr.Seed)
	}
	if len(sr.Workloads) != len(specs) {
		t.Fatalf("result has %d workloads, want %d", len(sr.Workloads), len(specs))
	}
	for _, wr := range sr.Workloads {
		if len(wr.Runs) != 2 {
			t.Fatalf("%s: %d runs, want an untraced and a traced one", wr.Workload, len(wr.Runs))
		}
		for _, r := range wr.Runs {
			if r.Ops.Sent == 0 || r.Ops.Failed != 0 || r.InputsSHA256 == "" || len(r.FlosdCmd) == 0 {
				t.Errorf("%s traced=%v: ops=%+v inputs=%q cmd=%v", wr.Workload, r.Traced, r.Ops, r.InputsSHA256, r.FlosdCmd)
			}
		}
		for _, d := range endToEnd {
			if m, ok := wr.EndToEnd[d.name]; !ok || m.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value", wr.Workload, d.name, m)
			}
		}
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Workload, d.name)
			}
		}
		traced := wr.Runs[1]
		b, err := os.ReadFile(traced.SpanFile)
		if err != nil {
			t.Fatal(err)
		}
		var first span
		if err := json.Unmarshal(b[:strings.IndexByte(string(b), '\n')], &first); err != nil || first.Name != "request" {
			t.Errorf("%s: first span = %+v (%v), want the request root", wr.Workload, first, err)
		}
	}
	if err := compareFiles(root, outPath, outPath, &strings.Builder{}); err != nil {
		t.Errorf("comparing a result with itself: %v", err)
	}
}
