package harness

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flos/internal/graph"
)

// The paper's evaluation (§6) as assertions on exact counts and node sets at
// mini scale with fixed seeds. Timings are never asserted; every count below
// repeats exactly from run to run.

// figureTest opens every figure test. The sweeps start no goroutine, so
// the race detector has nothing to find in them and would stretch the
// package from seconds to minutes; they share no state, so they run in
// parallel with each other.
func figureTest(t *testing.T) {
	if raceEnabled {
		t.Skip("figure sweeps start no goroutine and take minutes under -race")
	}
	t.Parallel()
}

// noErrors fails on an empty sweep or any errored cell.
func noErrors(t *testing.T, rows []Row) []Row {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s/%s/k=%d: %s", r.Dataset, r.Method, r.K, r.Err)
		}
	}
	return rows
}

// runFigure runs one figure runner and checks the tables it prints: they
// name every row's dataset and method, each title in want, and no error.
func runFigure(t *testing.T, fig func(io.Writer, FigureConfig) ([]Row, error), cfg FigureConfig, want ...string) []Row {
	t.Helper()
	var buf bytes.Buffer
	rows, err := fig(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "ERROR") {
		t.Errorf("tables report an error:\n%s", out)
	}
	for _, r := range noErrors(t, rows) {
		want = append(want, r.Dataset, r.Method)
	}
	for _, s := range want {
		if !strings.Contains(out, s) {
			t.Fatalf("tables do not name %q:\n%s", s, out)
		}
	}
	return rows
}

type cell struct {
	dataset, method string
	k               int
}

func byCell(rows []Row) map[cell]Row {
	out := make(map[cell]Row, len(rows))
	for _, r := range rows {
		out[cell{r.Dataset, r.Method, r.K}] = r
	}
	return out
}

func sortedNodes(a Answer) []graph.NodeID {
	s := slices.Clone(a.Nodes)
	slices.Sort(s)
	return s
}

// exactness is one figure's exactness claims: the methods in same return
// the reference method's node set on every query, those in exact certify
// every answer, and those in inexact report Exact=false on every answer.
type exactness struct {
	reference      string
	same           []string
	exact, inexact []string
}

func (c exactness) check(t *testing.T, rows []Row) {
	t.Helper()
	cells := byCell(rows)
	checked := 0
	for _, ref := range rows {
		if ref.Method != c.reference {
			continue
		}
		checked++
		at := func(m string) Row {
			r, ok := cells[cell{ref.Dataset, m, ref.K}]
			if !ok || len(r.Answers) != len(ref.Answers) {
				t.Fatalf("%s k=%d: %s missing or short", ref.Dataset, ref.K, m)
			}
			return r
		}
		for _, m := range c.same {
			r := at(m)
			for i, a := range r.Answers {
				if got, want := sortedNodes(a), sortedNodes(ref.Answers[i]); !slices.Equal(got, want) {
					t.Errorf("%s k=%d query %d: %s returned %v, %s %v", ref.Dataset, ref.K, i, m, got, c.reference, want)
				}
			}
		}
		for _, m := range c.exact {
			if !at(m).Exact {
				t.Errorf("%s k=%d: %s did not certify every answer", ref.Dataset, ref.K, m)
			}
		}
		for _, m := range c.inexact {
			for i, a := range at(m).Answers {
				if a.Exact {
					t.Errorf("%s k=%d query %d: %s claims an exact answer", ref.Dataset, ref.K, i, m)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no %s rows", c.reference)
	}
}

// TestFig7Mini: FLoS_PHP is exact and returns GI's (and NN_EI's) answer
// while visiting fewer nodes than NN_EI; DNE and LS_EI are not exact. Both
// exact methods score precision 1 against the figure's own oracle.
func TestFig7Mini(t *testing.T) {
	figureTest(t)
	cfg := miniConfig(t)
	cfg.WithPrecision = true
	rows := runFigure(t, Fig7, cfg, "Figure 7")
	for _, r := range rows {
		if (r.Method == "FLoS_PHP" || r.Method == "GI_PHP") && r.Precision != 1 {
			t.Errorf("%s k=%d: %s precision %g", r.Dataset, r.K, r.Method, r.Precision)
		}
	}
	exactness{
		reference: "FLoS_PHP",
		same:      []string{"GI_PHP", "NN_EI"},
		exact:     []string{"FLoS_PHP", "GI_PHP"},
		inexact:   []string{"DNE", "LS_EI"},
	}.check(t, rows)
	cells := byCell(rows)
	for _, r := range rows {
		if r.Method != "FLoS_PHP" {
			continue
		}
		if nn := cells[cell{r.Dataset, "NN_EI", r.K}]; r.AvgVisited >= nn.AvgVisited {
			t.Errorf("%s k=%d: FLoS_PHP visits %g, NN_EI %g", r.Dataset, r.K, r.AvgVisited, nn.AvgVisited)
		}
	}
}

// TestFig8Mini: FLoS_RWR is exact and returns GI's and Castanet's answer;
// LS_RWR and GE_RWR are not exact.
func TestFig8Mini(t *testing.T) {
	figureTest(t)
	exactness{
		reference: "FLoS_RWR",
		same:      []string{"GI_RWR", "Castanet"},
		exact:     []string{"FLoS_RWR", "GI_RWR"},
		inexact:   []string{"LS_RWR", "GE_RWR"},
	}.check(t, runFigure(t, Fig8, miniConfig(t), "Figure 8"))
}

// TestFig10Mini: FLoS_THT certifies every answer and returns GI's; LS_THT
// and MC_THT are not exact.
func TestFig10Mini(t *testing.T) {
	figureTest(t)
	exactness{
		reference: "FLoS_THT",
		same:      []string{"GI_THT"},
		exact:     []string{"FLoS_THT", "GI_THT"},
		inexact:   []string{"LS_THT", "MC_THT"},
	}.check(t, runFigure(t, Fig10, miniConfig(t), "Figure 10"))
}

// ratiosFall fails unless, for every (dataset, method) of the first run,
// the visited ratio strictly falls from each run to the next.
func ratiosFall(t *testing.T, runs [][]Row, next func(dataset string, run int) string) {
	t.Helper()
	for _, r := range runs[0] {
		prev, name := r.VisitedRatio, r.Dataset
		for i := 1; i < len(runs); i++ {
			name = next(name, i)
			cur, ok := byCell(runs[i])[cell{name, r.Method, r.K}]
			if !ok {
				t.Fatalf("%s/%s missing from run %d", name, r.Method, i)
			}
			if cur.VisitedRatio >= prev {
				t.Errorf("%s %s: visited ratio %.3e after %.3e", name, r.Method, cur.VisitedRatio, prev)
			}
			prev = cur.VisitedRatio
		}
	}
}

// TestFig9Mini: the FLoS_PHP and FLoS_RWR visited ratio of every stand-in
// strictly falls as the stand-in grows. Across datasets at one scale it
// does not (at 0.004 LJ, the largest, reads 7.97e-3 to YT's 4.96e-3), so that
// is not asserted.
func TestFig9Mini(t *testing.T) {
	figureTest(t)
	var runs [][]Row
	for _, scale := range []float64{0.004, 0.01, 0.02} {
		cfg := miniConfig(t)
		cfg.Scale = scale
		runs = append(runs, runFigure(t, Fig9, cfg, "Figure 9", "avg-ratio"))
	}
	ratiosFall(t, runs, func(ds string, _ int) string { return ds })
}

// TestFig13Mini: searches served from the disk store return exactly the
// in-memory answers, and the visited ratio falls across the four stores. At
// two queries per store the fall is sampling noise (one query's visited
// count decides it); at 16 it holds for both FLoS methods.
func TestFig13Mini(t *testing.T) {
	figureTest(t)
	cfg := miniConfig(t)
	cfg.NumQueries = 16
	rows := runFigure(t, Fig13, cfg, "Figure 13(a)", "Figure 13(b)", "pinned hits")
	cells := byCell(rows)
	var runs [][]Row
	for _, ds := range DiskResident(cfg.DiskScale) {
		g, err := ds.Build()
		if err != nil {
			t.Fatal(err)
		}
		mem := RunSweep(ds.Name, g, flosPair(cfg.Config), SweepConfig{
			Ks:      []int{cfg.KFixed},
			Queries: Queries(g, cfg.NumQueries, cfg.Seed),
		})
		for _, m := range mem {
			disk := cells[cell{m.Dataset, m.Method, m.K}]
			if !disk.Exact || !reflect.DeepEqual(disk.Answers, m.Answers) {
				t.Errorf("%s %s: disk answers %+v, in memory %+v", m.Dataset, m.Method, disk.Answers, m.Answers)
			}
		}
		runs = append(runs, mem)
	}
	stores := DiskResident(cfg.DiskScale)
	ratiosFall(t, runs, func(_ string, i int) string { return stores[i].Name })
}

// synthPanels are the titles Figures 11 and 12 print, one per Table 6 panel.
var synthPanels = []string{"varying size, RAND", "varying size, R-MAT", "varying density, RAND", "varying density, R-MAT"}

// TestFig11And12Mini: on every synthetic panel FLoS_PHP (Figure 11) and
// FLoS_RWR (Figure 12) are exact and return GI's answers (and NN_EI's,
// Castanet's and, where it runs, K-dash's), and the heuristics are not
// exact. Figure 12 is the one figure that does not
// reproduce (EXPERIMENTS.md): FLoS_RWR visits most of these small
// structureless graphs. Its visited means on the RAND size panel are pinned
// here; the shell bound moved them from 788 / 1,565 / 3,050 / 5,224.5,
// ROADMAP item 13 is expected to move them again, and a change that does
// updates them. FLoS_PHP's ratio does not fall across that panel at
// mini scale, so that is not asserted.
func TestFig11And12Mini(t *testing.T) {
	figureTest(t)
	cfg := miniConfig(t)
	exactness{
		reference: "FLoS_PHP",
		same:      []string{"GI_PHP", "NN_EI"},
		exact:     []string{"FLoS_PHP", "GI_PHP"},
		inexact:   []string{"DNE", "LS_EI"},
	}.check(t, runFigure(t, Fig11, cfg, synthPanels...))
	rwr := runFigure(t, Fig12, cfg, synthPanels...)
	exactness{
		reference: "FLoS_RWR",
		same:      []string{"GI_RWR", "Castanet"},
		exact:     []string{"FLoS_RWR", "GI_RWR"},
		inexact:   []string{"LS_RWR", "GE_RWR"},
	}.check(t, rwr)
	cells := byCell(rwr)
	// K-dash joins the registry only on graphs its precompute can handle
	// (KDashMaxNodes); there it is exact and returns FLoS_RWR's answers.
	kdash := 0
	for _, r := range rwr {
		if r.Method != "K-dash" {
			continue
		}
		kdash++
		flos := cells[cell{r.Dataset, "FLoS_RWR", r.K}]
		for i, a := range r.Answers {
			if !a.Exact || !slices.Equal(sortedNodes(a), sortedNodes(flos.Answers[i])) {
				t.Errorf("%s query %d: K-dash returned %+v, FLoS_RWR %+v", r.Dataset, i, a, flos.Answers[i])
			}
		}
	}
	if kdash == 0 {
		t.Error("K-dash ran on no synthetic graph")
	}
	for i, ds := range VaryingSize("rand", cfg.SynthScale) {
		want := []float64{689.5, 1404.5, 2697.5, 4620.5}[i]
		if got := cells[cell{ds.Name, "FLoS_RWR", cfg.KFixed}].AvgVisited; got != want {
			t.Errorf("%s (n=%d): FLoS_RWR visits %g on average, pinned at %g", ds.Name, ds.Nodes, got, want)
		}
	}
}
