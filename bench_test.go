package flos

// Benchmarks regenerating the paper's evaluation, one family per figure.
// Sizes are scaled so `go test -bench=. -benchmem` completes on a laptop;
// cmd/flosbench runs the same sweeps at arbitrary scale. Each benchmark
// iteration answers one query, cycling through a fixed seeded workload, so
// ns/op is directly the paper's "average query time" axis.
//
//	Figure 7  — PHP query time vs k on the real-graph stand-ins
//	Figure 8  — RWR query time vs k
//	Figure 9  — visited-node ratio (reported as the visited/op metric)
//	Figure 10 — THT query time vs k
//	Figure 11 — PHP on synthetic RAND/R-MAT grids
//	Figure 12 — RWR on synthetic grids
//	Figure 13 — FLoS on the disk-resident store
//	Table 3   — the worked-example trace (micro benchmark)

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flos/internal/diskgraph"
	"flos/internal/graph"
	"flos/internal/harness"
	"flos/internal/measure"
)

// benchScale shrinks the paper's dataset sizes for bench runs.
const (
	benchRealScale  = 1.0 / 32
	benchSynthScale = 1.0 / 128
	benchDiskScale  = 1.0 / 512
	benchQueries    = 8
)

var benchCache sync.Map // dataset name -> *benchEntry

type benchEntry struct {
	once    sync.Once
	g       *graph.MemGraph
	queries []graph.NodeID
	methods map[string][]harness.Method
	err     error
}

func benchGraph(b *testing.B, ds harness.Dataset) *benchEntry {
	b.Helper()
	v, _ := benchCache.LoadOrStore(ds.Name, &benchEntry{})
	e := v.(*benchEntry)
	e.once.Do(func() {
		e.g, e.err = ds.Build()
		if e.err != nil {
			return
		}
		e.queries = harness.Queries(e.g, benchQueries, 1)
		e.methods = make(map[string][]harness.Method)
	})
	if e.err != nil {
		b.Fatalf("building %s: %v", ds.Name, e.err)
	}
	return e
}

// methodsFor memoizes a registry per dataset so precomputes (clustering,
// K-dash factorization, embedding) run once, outside any timer.
func (e *benchEntry) methodsFor(kind string, build func(graph.Graph, harness.MethodConfig) []harness.Method) []harness.Method {
	if m, ok := e.methods[kind]; ok {
		return m
	}
	cfg := harness.DefaultMethodConfig()
	cfg.KDashMaxNodes = 15000 // mirror the paper's "medium graphs only" gate
	m := build(e.g, cfg)
	e.methods[kind] = m
	return m
}

func runMethodBench(b *testing.B, e *benchEntry, m harness.Method, k int) {
	b.Helper()
	visited := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.queries[i%len(e.queries)]
		a, err := m.Run(e.g, q, k)
		if err != nil {
			b.Fatal(err)
		}
		visited += float64(a.Visited)
	}
	b.StopTimer()
	b.ReportMetric(visited/float64(b.N), "visited/op")
	b.ReportMetric(visited/float64(b.N)/float64(e.g.NumNodes()), "visitedratio/op")
}

func benchFigure(b *testing.B, datasets []harness.Dataset, kind string,
	registry func(graph.Graph, harness.MethodConfig) []harness.Method, ks []int) {
	for _, ds := range datasets {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			e := benchGraph(b, ds)
			for _, m := range e.methodsFor(kind, registry) {
				m := m
				for _, k := range ks {
					k := k
					b.Run(fmt.Sprintf("%s/k=%d", m.Name, k), func(b *testing.B) {
						runMethodBench(b, e, m, k)
					})
				}
			}
		})
	}
}

func BenchmarkFig7_PHP(b *testing.B) {
	benchFigure(b, harness.RealStandIns(benchRealScale), "php", harness.PHPMethods, []int{1, 10, 100})
}

func BenchmarkFig8_RWR(b *testing.B) {
	benchFigure(b, harness.RealStandIns(benchRealScale), "rwr", harness.RWRMethods, []int{1, 10, 100})
}

func BenchmarkFig10_THT(b *testing.B) {
	benchFigure(b, harness.RealStandIns(benchRealScale), "tht", harness.THTMethods, []int{1, 10, 100})
}

// BenchmarkFig9_VisitedRatio isolates the two FLoS variants at k=20; read
// the visitedratio/op metric for Figure 9's bars.
func BenchmarkFig9_VisitedRatio(b *testing.B) {
	for _, ds := range harness.RealStandIns(benchRealScale) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			e := benchGraph(b, ds)
			for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
				kind := kind
				b.Run("FLoS_"+kind.String(), func(b *testing.B) {
					visited := 0.0
					for i := 0; i < b.N; i++ {
						q := e.queries[i%len(e.queries)]
						res, err := TopK(e.g, q, DefaultOptions(kind, 20))
						if err != nil {
							b.Fatal(err)
						}
						visited += float64(res.Visited)
					}
					b.ReportMetric(visited/float64(b.N)/float64(e.g.NumNodes()), "visitedratio/op")
				})
			}
		})
	}
}

func BenchmarkFig11_PHP_Synthetic(b *testing.B) {
	grid := append(harness.VaryingSize("rand", benchSynthScale),
		append(harness.VaryingSize("rmat", benchSynthScale),
			append(harness.VaryingDensity("rand", benchSynthScale),
				harness.VaryingDensity("rmat", benchSynthScale)...)...)...)
	benchFigure(b, grid, "php", harness.PHPMethods, []int{20})
}

func BenchmarkFig12_RWR_Synthetic(b *testing.B) {
	grid := append(harness.VaryingSize("rand", benchSynthScale),
		harness.VaryingSize("rmat", benchSynthScale)...)
	benchFigure(b, grid, "rwr", harness.RWRMethods, []int{20})
}

// BenchmarkFig13_Disk measures FLoS against the paged store under a 25%
// cache budget; visitedratio/op is Figure 13(b).
func BenchmarkFig13_Disk(b *testing.B) {
	for _, ds := range harness.DiskResident(benchDiskScale) {
		ds := ds
		b.Run(ds.Name, func(b *testing.B) {
			g, err := ds.Build()
			if err != nil {
				b.Fatal(err)
			}
			queries := harness.Queries(g, benchQueries, 1)
			dir := b.TempDir()
			path := filepath.Join(dir, ds.Name+".flos")
			if err := diskgraph.Create(path, g, 0); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			store, err := diskgraph.Open(path, fi.Size()/4)
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			for _, kind := range []measure.Kind{measure.PHP, measure.RWR} {
				kind := kind
				b.Run("FLoS_"+kind.String(), func(b *testing.B) {
					visited := 0.0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						q := queries[i%len(queries)]
						res, err := TopK(store, q, DefaultOptions(kind, 20))
						if err != nil {
							b.Fatal(err)
						}
						visited += float64(res.Visited)
					}
					b.StopTimer()
					b.ReportMetric(visited/float64(b.N)/float64(store.NumNodes()), "visitedratio/op")
				})
			}
		})
	}
}

// nopSnapshots is a SnapshotObserver that discards every record, so the
// traced benchmark measures snapshot construction without retention cost.
type nopSnapshots struct{}

func (nopSnapshots) ObserveIteration(IterStats) {}
func (nopSnapshots) ObserveSnapshot(TraceEvent) {}

// BenchmarkTable3_Trace micro-benchmarks the worked example, trace included.
func BenchmarkTable3_Trace(b *testing.B) {
	g := MustPaperExample()
	opt := Options{
		K:       2,
		Measure: PHP,
		Params:  Params{C: 0.8, L: 10, Tau: 1e-8, MaxIter: 100000},
		Tracer:  nopSnapshots{},
	}
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, 0, opt); err != nil {
			b.Fatal(err)
		}
	}
}
