package harness

import (
	"bytes"
	"strings"
	"testing"

	"flos/internal/graph"
	"flos/internal/measure"
)

// miniConfig shrinks every figure to seconds for CI; the same code paths run
// at full scale from cmd/flosbench.
func miniConfig(t *testing.T) FigureConfig {
	t.Helper()
	cfg := DefaultFigureConfig()
	cfg.Scale = 0.004
	cfg.SynthScale = 0.0008
	// At 0.0002 the disk stores are too small for Figure 13's ratio to fall
	// with size (5.57e-2, 1.33e-2, 1.94e-2, 1.32e-2 for PHP); at 0.001 it
	// does.
	cfg.DiskScale = 0.001
	cfg.NumQueries = 2
	cfg.Ks = []int{1, 5}
	cfg.KFixed = 5
	cfg.TmpDir = t.TempDir()
	cfg.Config.DNEBudget = 300
	cfg.Config.ClusterSize = 200
	cfg.Config.EmbedDims = 4
	cfg.Config.KDashMaxNodes = 900 // keep K-dash on the smallest minis only
	return cfg
}

func TestDatasetBuild(t *testing.T) {
	for _, ds := range RealStandIns(0.003) {
		g, err := ds.Build()
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if g.NumNodes() != ds.Nodes || g.NumEdges() != ds.Edges {
			t.Errorf("%s: got (%d,%d), want (%d,%d)", ds.Name, g.NumNodes(), g.NumEdges(), ds.Nodes, ds.Edges)
		}
	}
	if _, err := (Dataset{Model: "nope", Nodes: 10, Edges: 5}).Build(); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDatasetGrids(t *testing.T) {
	vs := VaryingSize("rand", 0.01)
	if len(vs) != 4 {
		t.Fatalf("varying size: %d entries", len(vs))
	}
	// Constant density across the size series.
	d0 := vs[0].Density()
	for _, ds := range vs[1:] {
		if diff := ds.Density() - d0; diff > 1 || diff < -1 {
			t.Errorf("density drifts across size series: %g vs %g", ds.Density(), d0)
		}
	}
	vd := VaryingDensity("rmat", 0.01)
	for i := 1; i < len(vd); i++ {
		if vd[i].Density() <= vd[i-1].Density() {
			t.Errorf("density series not increasing: %g then %g", vd[i-1].Density(), vd[i].Density())
		}
		if vd[i].Nodes != vd[0].Nodes {
			t.Errorf("node count varies in density series")
		}
	}
	if len(DiskResident(0.001)) != 4 {
		t.Error("disk series wrong length")
	}
}

func TestQueriesDeterministicAndValid(t *testing.T) {
	ds := RealStandIns(0.003)[0]
	g, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := Queries(g, 10, 7)
	b := Queries(g, 10, 7)
	if len(a) != 10 {
		t.Fatalf("got %d queries", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different workload")
		}
	}
	c := Queries(g, 10, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
	seen := map[graph.NodeID]bool{}
	for _, q := range a {
		if seen[q] {
			t.Error("duplicate query node")
		}
		seen[q] = true
		if g.Degree(q) == 0 {
			t.Error("isolated query node sampled")
		}
	}
}

func TestRunSweepWithOracle(t *testing.T) {
	ds := Dataset{Name: "tiny", Model: "rmat", Nodes: 300, Edges: 900, Seed: 5}
	g, err := ds.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMethodConfig()
	// A method whose second answer is inexact: its row must not read exact.
	calls := 0
	flos := flosMethod(measure.PHP, cfg)
	flaky := Method{Name: "flaky", Run: func(g graph.Graph, q graph.NodeID, k int) (Answer, error) {
		a, err := flos.Run(g, q, k)
		calls++
		a.Exact = a.Exact && calls != 2
		return a, err
	}}
	methods := append(PHPMethods(g, cfg), flaky)
	queries := Queries(g, 4, 2)
	oracle := func(q graph.NodeID) ([]float64, bool, error) {
		s, _, err := measure.Exact(g, q, measure.PHP, cfg.Params)
		return s, true, err
	}
	rows := RunSweep("tiny", g, methods, SweepConfig{Ks: []int{3}, Queries: queries, Oracle: oracle})
	if len(rows) != len(methods) {
		t.Fatalf("%d rows for %d methods", len(rows), len(methods))
	}
	exact := map[string]bool{"FLoS_PHP": true, "GI_PHP": true, "DNE": false, "LS_EI": false, "flaky": false}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Method, r.Err)
		}
		if len(r.Answers) != 4 {
			t.Errorf("%s: %d answers", r.Method, len(r.Answers))
		}
		if want, ok := exact[r.Method]; ok && r.Exact != want {
			t.Errorf("%s: row exact %v, want %v", r.Method, r.Exact, want)
		}
		if r.Precision < 0 || r.Precision > 1 {
			t.Errorf("%s: precision %g", r.Method, r.Precision)
		}
		// Exact methods must score perfect precision.
		if r.Exact && r.Precision < 0.999 {
			t.Errorf("exact method %s scored precision %g", r.Method, r.Precision)
		}
		if r.AvgVisited <= 0 {
			t.Errorf("%s: no visits recorded", r.Method)
		}
	}
}

func TestFigTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := FigTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"newly visited [2 3]",
		"newly visited [4]",
		"newly visited [5]",
		"top-2 certified after 3 iterations, 5/8 nodes visited: [2 3]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q\n%s", want, out)
		}
	}
}

func TestDatasetsPrinter(t *testing.T) {
	var buf bytes.Buffer
	if err := Datasets(&buf, miniConfig(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 4", "Table 6", "Table 7", "density"} {
		if !strings.Contains(out, want) {
			t.Errorf("Datasets output missing %q", want)
		}
	}
}

func TestProfilesPrinter(t *testing.T) {
	cfg := miniConfig(t)
	cfg.Scale = 0.001
	var buf bytes.Buffer
	if err := Profiles(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"clustering", "AZ", "AZ-rmat", "LJ-rmat"} {
		if !strings.Contains(out, want) {
			t.Errorf("Profiles output missing %q", want)
		}
	}
}
