// Command flosbench regenerates the paper's figures and tables.
//
// Usage:
//
//	flosbench -fig 7            # Figure 7 (PHP vs k on real-graph stand-ins)
//	flosbench -fig 8            # Figure 8 (RWR vs k)
//	flosbench -fig 9            # Figure 9 (visited-node ratios)
//	flosbench -fig 10           # Figure 10 (THT vs k)
//	flosbench -fig 11           # Figure 11 (PHP on synthetic grids)
//	flosbench -fig 12           # Figure 12 (RWR on synthetic grids)
//	flosbench -fig 13           # Figure 13 (disk-resident stores)
//	flosbench -fig trace        # Figure 4 / Table 3 worked example
//	flosbench -fig all          # everything
//	flosbench -datasets         # Table 4/6/7 dataset statistics
//
// Scales default to laptop-bench sizes; pass -scale 1 -synthscale 1
// -diskscale 1 -queries 1000 to run the paper's full configuration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"flos/internal/harness"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 7, 8, 9, 10, 11, 12, 13, trace, all")
		datasets   = flag.Bool("datasets", false, "print dataset statistics tables")
		profiles   = flag.Bool("profiles", false, "print stand-in structural fingerprints (clustering, diameter)")
		scale      = flag.Float64("scale", 0, "SNAP stand-in scale (default 1/8; 1 = paper size)")
		synthScale = flag.Float64("synthscale", 0, "Table 6 synthetic scale (default 1/16)")
		diskScale  = flag.Float64("diskscale", 0, "Table 7 disk scale (default 1/64)")
		queries    = flag.Int("queries", 0, "queries per dataset (default 20; paper uses 1000)")
		precision  = flag.Bool("precision", false, "score approximate methods against a GI oracle")
		seed       = flag.Uint64("seed", 1, "workload sampling seed")
		tmp        = flag.String("tmp", "", "directory for Figure 13 store files (default $TMPDIR)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := harness.DefaultFigureConfig()
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *synthScale > 0 {
		cfg.SynthScale = *synthScale
	}
	if *diskScale > 0 {
		cfg.DiskScale = *diskScale
	}
	if *queries > 0 {
		cfg.NumQueries = *queries
	}
	cfg.WithPrecision = *precision
	cfg.Seed = *seed
	cfg.TmpDir = *tmp

	out := os.Stdout
	if *datasets {
		if err := harness.Datasets(out, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *profiles {
		if err := harness.Profiles(out, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *fig == "" {
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, f func(io.Writer, harness.FigureConfig) ([]harness.Row, error)) {
		fmt.Fprintf(out, "### %s ###\n", name)
		if _, err := f(out, cfg); err != nil {
			fatal(err)
		}
	}
	figures := map[string]func(io.Writer, harness.FigureConfig) ([]harness.Row, error){
		"7":  harness.Fig7,
		"8":  harness.Fig8,
		"9":  harness.Fig9,
		"10": harness.Fig10,
		"11": harness.Fig11,
		"12": harness.Fig12,
		"13": harness.Fig13,
		"trace": func(w io.Writer, _ harness.FigureConfig) ([]harness.Row, error) {
			return nil, harness.FigTrace(w)
		},
	}
	if *fig == "all" {
		for _, name := range []string{"trace", "7", "8", "9", "10", "11", "12", "13"} {
			run("Figure "+name, figures[name])
		}
		return
	}
	f, ok := figures[*fig]
	if !ok {
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
	run("Figure "+*fig, f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flosbench:", err)
	os.Exit(1)
}
