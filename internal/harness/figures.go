package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flos/internal/core"
	"flos/internal/diskgraph"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// FigureConfig controls scale and workload size for every figure runner.
// The defaults target minutes-not-hours on a laptop; pass Scale* = 1 and
// NumQueries = 1000 to reproduce the paper's full setup.
type FigureConfig struct {
	// Scale multiplies the SNAP stand-in sizes (Figures 7–10).
	Scale float64
	// SynthScale multiplies the Table 6 synthetic sizes (Figures 11–12).
	SynthScale float64
	// DiskScale multiplies the Table 7 disk-resident sizes (Figure 13).
	DiskScale float64
	// NumQueries per dataset (paper: 1000).
	NumQueries int
	// Ks for the k-sweeps (Figures 7, 8, 10).
	Ks []int
	// KFixed for the fixed-k figures (9, 11, 12, 13; paper: 20).
	KFixed int
	// WithPrecision computes precision of approximate methods against a GI
	// oracle (adds one GI run per query and measure).
	WithPrecision bool
	// TmpDir hosts Figure 13's store files (default: os.TempDir()).
	TmpDir string
	// CacheFraction sets the Figure 13 pinned-row budget as a fraction of
	// each store's file size (the paper pins 2 GB against 3.1–13.2 GB
	// stores, i.e. roughly 15–65%).
	CacheFraction float64
	// Seed drives query sampling.
	Seed uint64
	// Config tunes the baselines.
	Config MethodConfig
}

// DefaultFigureConfig returns laptop-bench defaults.
func DefaultFigureConfig() FigureConfig {
	return FigureConfig{
		Scale:         1.0 / 8,
		SynthScale:    1.0 / 16,
		DiskScale:     1.0 / 64,
		NumQueries:    20,
		Ks:            []int{1, 5, 10, 20, 50, 100},
		KFixed:        20,
		CacheFraction: 0.25,
		Seed:          1,
		Config:        DefaultMethodConfig(),
	}
}

func (cfg FigureConfig) oracleFor(g graph.Graph, kind measure.Kind) func(graph.NodeID) ([]float64, bool, error) {
	if !cfg.WithPrecision {
		return nil
	}
	cache := map[graph.NodeID][]float64{}
	return func(q graph.NodeID) ([]float64, bool, error) {
		if s, ok := cache[q]; ok {
			return s, kind.HigherIsCloser(), nil
		}
		p := cfg.Config.Params
		s, _, err := measure.Exact(g, q, kind, p)
		if err != nil {
			return nil, false, err
		}
		cache[q] = s
		return s, kind.HigherIsCloser(), nil
	}
}

// runKSweep is the shared engine of Figures 7, 8, 10.
func (cfg FigureConfig) runKSweep(w io.Writer, title string, kind measure.Kind,
	registry func(graph.Graph, MethodConfig) []Method) ([]Row, error) {
	var all []Row
	for _, ds := range RealStandIns(cfg.Scale) {
		g, err := ds.Build()
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %w", ds.Name, err)
		}
		methods := registry(g, cfg.Config)
		queries := Queries(g, cfg.NumQueries, cfg.Seed)
		rows := RunSweep(ds.Name, g, methods, SweepConfig{
			Ks:      cfg.Ks,
			Queries: queries,
			Oracle:  cfg.oracleFor(g, kind),
		})
		PrintRows(w, fmt.Sprintf("%s — %s (n=%d, m=%d)", title, ds.Name, g.NumNodes(), g.NumEdges()), rows)
		PrintPrecomputes(w, ds.Name, methods)
		all = append(all, rows...)
	}
	return all, nil
}

// Fig7 regenerates Figure 7: PHP running time vs k on the four stand-ins.
// Like every figure runner it prints its tables to w and returns the rows
// behind them, per-query answers included.
func Fig7(w io.Writer, cfg FigureConfig) ([]Row, error) {
	return cfg.runKSweep(w, "Figure 7: PHP query time vs k", measure.PHP, PHPMethods)
}

// Fig8 regenerates Figure 8: RWR running time vs k.
func Fig8(w io.Writer, cfg FigureConfig) ([]Row, error) {
	return cfg.runKSweep(w, "Figure 8: RWR query time vs k", measure.RWR, RWRMethods)
}

// Fig10 regenerates Figure 10: THT running time vs k.
func Fig10(w io.Writer, cfg FigureConfig) ([]Row, error) {
	return cfg.runKSweep(w, "Figure 10: THT query time vs k", measure.THT, THTMethods)
}

// flosPair is the FLoS_PHP / FLoS_RWR registry of Figures 9 and 13.
func flosPair(cfg MethodConfig) []Method {
	return []Method{flosMethod(measure.PHP, cfg), flosMethod(measure.RWR, cfg)}
}

// Fig9 regenerates Figure 9: visited-node ratio of FLoS_PHP and FLoS_RWR on
// the stand-ins (avg/min/max over the workload).
func Fig9(w io.Writer, cfg FigureConfig) ([]Row, error) {
	var rows []Row
	for _, ds := range RealStandIns(cfg.Scale) {
		g, err := ds.Build()
		if err != nil {
			return nil, err
		}
		rows = append(rows, RunSweep(ds.Name, g, flosPair(cfg.Config), SweepConfig{
			Ks:      []int{cfg.KFixed},
			Queries: Queries(g, cfg.NumQueries, cfg.Seed),
		})...)
	}
	PrintVisitedRatios(w, "Figure 9: visited-node ratio on real-graph stand-ins", rows)
	return rows, nil
}

// Fig11 regenerates Figure 11: PHP on the synthetic grids (varying size and
// varying density, RAND and R-MAT), k fixed.
func Fig11(w io.Writer, cfg FigureConfig) ([]Row, error) {
	return cfg.runSynth(w, "Figure 11: PHP on synthetic graphs", measure.PHP, PHPMethods)
}

// Fig12 regenerates Figure 12: RWR on the synthetic grids.
func Fig12(w io.Writer, cfg FigureConfig) ([]Row, error) {
	return cfg.runSynth(w, "Figure 12: RWR on synthetic graphs", measure.RWR, RWRMethods)
}

func (cfg FigureConfig) runSynth(w io.Writer, title string, kind measure.Kind,
	registry func(graph.Graph, MethodConfig) []Method) ([]Row, error) {
	var all []Row
	panels := []struct {
		name string
		ds   []Dataset
	}{
		{"varying size, RAND", VaryingSize("rand", cfg.SynthScale)},
		{"varying size, R-MAT", VaryingSize("rmat", cfg.SynthScale)},
		{"varying density, RAND", VaryingDensity("rand", cfg.SynthScale)},
		{"varying density, R-MAT", VaryingDensity("rmat", cfg.SynthScale)},
	}
	for _, panel := range panels {
		var rows []Row
		for _, ds := range panel.ds {
			g, err := ds.Build()
			if err != nil {
				return nil, fmt.Errorf("harness: building %s: %w", ds.Name, err)
			}
			methods := registry(g, cfg.Config)
			queries := Queries(g, cfg.NumQueries, cfg.Seed)
			rows = append(rows, RunSweep(ds.Name, g, methods, SweepConfig{
				Ks:      []int{cfg.KFixed},
				Queries: queries,
				Oracle:  cfg.oracleFor(g, kind),
			})...)
		}
		PrintRows(w, fmt.Sprintf("%s — %s (k=%d)", title, panel.name, cfg.KFixed), rows)
		all = append(all, rows...)
	}
	return all, nil
}

// Fig13 regenerates Figure 13: FLoS on disk-resident stores under a memory
// budget — query time (a) and visited ratio (b) as the store grows.
func Fig13(w io.Writer, cfg FigureConfig) ([]Row, error) {
	tmp := cfg.TmpDir
	if tmp == "" {
		tmp = os.TempDir()
	}
	var rows []Row
	for _, ds := range DiskResident(cfg.DiskScale) {
		g, err := ds.Build()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(tmp, ds.Name+".flos")
		if err := diskgraph.Create(path, g, 0); err != nil {
			return nil, err
		}
		// Sample queries while the in-memory copy exists, then drop it: the
		// store must serve the search alone.
		queries := Queries(g, cfg.NumQueries, cfg.Seed)
		var fileSize int64
		func() {
			st, err := os.Stat(path)
			if err == nil {
				fileSize = st.Size()
			}
		}()
		cacheBudget := int64(float64(fileSize) * cfg.CacheFraction)
		g = nil
		store, err := diskgraph.Open(path, cacheBudget)
		if err != nil {
			return nil, err
		}
		dsRows := RunSweep(ds.Name, store, flosPair(cfg.Config), SweepConfig{
			Ks:      []int{cfg.KFixed},
			Queries: queries,
		})
		stats := store.CacheStats()
		fmt.Fprintf(w, "-- %s: file %.1f MB, pinned rows %.1f MB, pinned hits %d file reads %d --\n",
			ds.Name, float64(fileSize)/1e6, float64(cacheBudget)/1e6, stats.Hits, stats.Misses)
		rows = append(rows, dsRows...)
		store.Close()
		os.Remove(path)
	}
	PrintRows(w, "Figure 13(a): FLoS on disk-resident graphs (time)", rows)
	PrintVisitedRatios(w, "Figure 13(b): FLoS on disk-resident graphs (visited ratio)", rows)
	return rows, nil
}

// FigTrace replays the paper's running example (Figure 4 bound trajectories
// and Table 3 per-iteration visits) on the Figure 1(a) graph.
func FigTrace(w io.Writer) error {
	g := gen.PaperExample()
	fmt.Fprintln(w, "== Figure 4 / Table 3: bound trace on the Figure 1(a) example (PHP, q=1, c=0.8) ==")
	fmt.Fprintln(w, "(paper node numbers; node 1 is the query with constant proximity 1)")
	sc := &core.SnapshotCollector{}
	opt := core.Options{
		K:       2,
		Measure: measure.PHP,
		Params:  measure.Params{C: 0.8, L: 10, Tau: 1e-8, MaxIter: 100000},
		Tracer:  sc,
	}
	res, err := core.TopK(g, 0, opt)
	if err != nil {
		return err
	}
	for _, ev := range sc.Events {
		fmt.Fprintf(w, "iteration %d: expanded node %d, newly visited %v\n",
			ev.Iteration, ev.Expanded+1, paperNodes(ev.NewNodes))
		for i, v := range ev.Nodes {
			if v == 0 {
				continue
			}
			fmt.Fprintf(w, "  node %d: lb=%.4f ub=%.4f\n", v+1, ev.Lower[i], ev.Upper[i])
		}
		fmt.Fprintf(w, "  dummy value r_d=%.4f\n", ev.DummyValue)
	}
	fmt.Fprintf(w, "top-2 certified after %d iterations, %d/8 nodes visited: %v\n\n",
		res.Iterations, res.Visited, paperNodes(measure.Nodes(res.TopK)))
	return nil
}

func paperNodes(ids []graph.NodeID) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v) + 1
	}
	return out
}

// Datasets prints the Table 4/6/7 dataset statistics at the configured
// scales.
func Datasets(w io.Writer, cfg FigureConfig) error {
	print := func(title string, list []Dataset) error {
		fmt.Fprintf(w, "== %s ==\n", title)
		fmt.Fprintf(w, "%-14s %-6s %10s %12s %8s\n", "name", "model", "nodes", "edges", "density")
		for _, ds := range list {
			fmt.Fprintf(w, "%-14s %-6s %10d %12d %8.1f\n", ds.Name, ds.Model, ds.Nodes, ds.Edges, ds.Density())
		}
		fmt.Fprintln(w)
		return nil
	}
	if err := print(fmt.Sprintf("Table 4 stand-ins (scale %.4f)", cfg.Scale), RealStandIns(cfg.Scale)); err != nil {
		return err
	}
	if err := print("Table 6 varying size (RAND)", VaryingSize("rand", cfg.SynthScale)); err != nil {
		return err
	}
	if err := print("Table 6 varying size (R-MAT)", VaryingSize("rmat", cfg.SynthScale)); err != nil {
		return err
	}
	if err := print("Table 6 varying density (RAND)", VaryingDensity("rand", cfg.SynthScale)); err != nil {
		return err
	}
	if err := print("Table 6 varying density (R-MAT)", VaryingDensity("rmat", cfg.SynthScale)); err != nil {
		return err
	}
	return print("Table 7 disk-resident", DiskResident(cfg.DiskScale))
}

// Profiles prints the structural fingerprint — clustering coefficient and
// effective diameter — of every stand-in, evidencing DESIGN.md §3's claim
// that the Community model (unlike R-MAT) matches the real graphs'
// locality profile.
func Profiles(w io.Writer, cfg FigureConfig) error {
	fmt.Fprintln(w, "== Stand-in structural fingerprints ==")
	fmt.Fprintf(w, "%-14s %-10s %10s %12s %10s %9s %8s\n",
		"name", "model", "nodes", "edges", "clustering", "eff.diam", "maxdeg")
	show := func(name, model string, g *graph.MemGraph) {
		p := graph.ComputeProfile(g, 400, 7)
		fmt.Fprintf(w, "%-14s %-10s %10d %12d %10.3f %9d %8.0f\n",
			name, model, p.Nodes, p.Edges, p.Clustering, p.EffectiveDiameter, p.MaxDegree)
	}
	for _, ds := range RealStandIns(cfg.Scale) {
		g, err := ds.Build()
		if err != nil {
			return err
		}
		show(ds.Name, ds.Model, g)
		// The R-MAT twin at the same size, for contrast.
		twin := Dataset{Name: ds.Name + "-rmat", Model: "rmat", Nodes: ds.Nodes, Edges: ds.Edges, Seed: ds.Seed}
		tg, err := twin.Build()
		if err != nil {
			return err
		}
		show(twin.Name, twin.Model, tg)
	}
	fmt.Fprintln(w)
	return nil
}
