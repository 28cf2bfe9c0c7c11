package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"flos/internal/graph"
	"flos/internal/measure"
)

// The 150-scenario goldens (golden_test.go) pin exact-mode searches that run
// to certification. This file pins the search loop's other exits — the ε
// stop, the MaxVisited valve, a cancellation after exactly N iterations in
// anytime and in exact mode — for PHP, RWR, THT and the unified search:
// rankings, Exact, every Certification field, the work counters, the read
// footprint and the full IterStats trajectory (minus the wall-clock fields). Floats are stored as IEEE-754
// bit patterns; the comparison is exact. Regenerate, only when a change is
// meant to alter the schedule, with:
//
//	FLOS_UPDATE_GOLDEN=1 go test ./internal/core -run TestDriverPaths

const driverPathsFile = "testdata/driver_paths.json"

type pathRanking struct {
	Nodes      []int32     `json:"nodes"`
	Scores     []uint64    `json:"score_bits"`
	Mode       string      `json:"mode"`
	Certified  bool        `json:"certified"`
	Epsilon    uint64      `json:"epsilon_bits"`
	GapValid   bool        `json:"gap_valid"`
	Kth        uint64      `json:"kth_bits"`
	Rest       uint64      `json:"rest_bits"`
	Gap        uint64      `json:"gap_bits"`
	Iterations int         `json:"cert_iterations"`
	Bounds     [][3]uint64 `json:"bounds"` // node, lower bits, upper bits
}

type pathRecord struct {
	Name string `json:"name"`
	// Interrupted is the *Interrupted error's cause and counters (visited,
	// iterations, sweeps) when the query returned one; the rest of the
	// record is then its attached partial result.
	Interrupted  string        `json:"interrupted,omitempty"`
	InCounters   [3]int        `json:"interrupted_counters"`
	Rankings     []pathRanking `json:"rankings"` // one, or PHP then RWR for unified
	Exact        bool          `json:"exact"`
	Visited      int           `json:"visited"`
	Iterations   int           `json:"iterations"`
	Sweeps       int           `json:"sweeps"`
	DegreeProbes int           `json:"degree_probes"`
	VisitedNodes []int32       `json:"visited_nodes"`
	ProbedNodes  []int32       `json:"probed_nodes"`
	GuardDegree  uint64        `json:"guard_degree_bits"`
	// Trace rows: iteration, visited, boundary, interior, batch, new nodes,
	// gap valid, kth bits, rest bits, gap bits, certified, dummy bits.
	Trace [][12]uint64 `json:"trace"`
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func pathRankingOf(rs []measure.Ranked, c Certification) pathRanking {
	nodes, bits := rankedBits(rs)
	pr := pathRanking{
		Nodes: nodes, Scores: bits, Mode: c.Mode.String(), Certified: c.Certified,
		Epsilon: math.Float64bits(c.Epsilon), GapValid: c.GapValid,
		Kth: math.Float64bits(c.KthBound), Rest: math.Float64bits(c.RestBound),
		Gap: math.Float64bits(c.Gap), Iterations: c.Iterations,
		Bounds: [][3]uint64{},
	}
	for _, b := range c.Bounds {
		pr.Bounds = append(pr.Bounds, [3]uint64{uint64(b.Node), math.Float64bits(b.Lower), math.Float64bits(b.Upper)})
	}
	return pr
}

// recordingCanceler collects the trajectory and, when cancel is set, cancels
// the query's context after exactly n observed iterations.
type recordingCanceler struct {
	TraceCollector
	n      int
	cancel context.CancelFunc
}

func (c *recordingCanceler) ObserveIteration(s IterStats) {
	c.TraceCollector.ObserveIteration(s)
	if c.cancel != nil && len(c.Iters) == c.n {
		c.cancel()
	}
}

// driverPaths lists the option variants; each is applied on top of
// goldenOptions with tracing and footprint capture on.
var driverPaths = []struct {
	name     string
	cancelAt int
	apply    func(opt *Options, kind measure.Kind)
}{
	{"epsilon", 0, func(opt *Options, kind measure.Kind) {
		// Wide enough that RWR (rand500) and THT (grid) stop with separating
		// work left, so the ε-exactness downgrade is on the record.
		opt.Mode, opt.Epsilon = ModeEpsilon, 0.05
		if kind == measure.THT {
			opt.Epsilon = 0.5
		}
	}},
	// The early cap fires in every scenario; the late one fires on rand500
	// after the unified search's PHP family has certified and before its RWR
	// family has, and not at all where the search finishes first.
	{"maxvisited", 0, func(opt *Options, _ measure.Kind) { opt.MaxVisited = 12 }},
	{"maxvisited-late", 0, func(opt *Options, _ measure.Kind) { opt.MaxVisited = 70 }},
	{"anytime-cancel", 3, func(opt *Options, _ measure.Kind) { opt.Mode = ModeAnytime }},
	{"exact-cancel", 3, func(*Options, measure.Kind) {}},
	// Iteration 12 splits the unified families on rand500 the same way.
	{"exact-cancel-late", 12, func(*Options, measure.Kind) {}},
}

func captureDriverPaths(t *testing.T) []pathRecord {
	var out []pathRecord
	for _, gc := range goldenGraphs(t) {
		if gc.name != "rand500" && gc.name != "grid" {
			continue
		}
		q := graph.NodeID(gc.g.NumNodes() / 3)
		for _, family := range []string{"PHP", "RWR", "THT", "unified"} {
			kind, unified := measure.PHP, family == "unified"
			if !unified {
				var ok bool
				if kind, ok = kindByName(family); !ok {
					t.Fatalf("unknown measure %q", family)
				}
			}
			for _, p := range driverPaths {
				opt := goldenOptions(kind)
				opt.CaptureFootprint = true
				p.apply(&opt, kind)
				ctx, cancel := context.WithCancel(context.Background())
				tr := &recordingCanceler{n: p.cancelAt}
				if p.cancelAt > 0 {
					tr.cancel = cancel
				}
				opt.Tracer = tr
				rec := pathRecord{Name: gc.name + "/" + family + "/" + p.name}

				var res *Result
				var ures *UnifiedResult
				var err error
				if unified {
					ures, err = UnifiedTopKCtx(ctx, gc.g, q, opt)
				} else {
					res, err = TopKCtx(ctx, gc.g, q, opt)
				}
				cancel()
				var in *Interrupted
				if errors.As(err, &in) {
					rec.Interrupted = in.Cause.Error()
					res, ures = in.Partial, in.PartialUnified
					rec.InCounters = [3]int{res.Visited, res.Iterations, res.Sweeps}
				} else if err != nil {
					t.Fatalf("%s: %v", rec.Name, err)
				}
				if ures != nil {
					res = &ures.Result
				}
				if res == nil {
					t.Fatalf("%s: no result and no partial (err=%v)", rec.Name, err)
				}
				rec.Rankings = []pathRanking{pathRankingOf(res.TopK, res.Certification)}
				if ures != nil {
					rec.Rankings = append(rec.Rankings, pathRankingOf(ures.RWR, ures.RWRCert))
				}
				rec.Exact, rec.Visited, rec.Iterations = res.Exact, res.Visited, res.Iterations
				rec.Sweeps, rec.DegreeProbes = res.Sweeps, res.DegreeProbes
				rec.VisitedNodes, rec.ProbedNodes = res.VisitedNodes, res.ProbedNodes
				rec.GuardDegree = math.Float64bits(res.GuardDegree)
				if rec.VisitedNodes == nil {
					rec.VisitedNodes = []int32{}
				}
				if rec.ProbedNodes == nil {
					rec.ProbedNodes = []int32{}
				}
				rec.Trace = [][12]uint64{}
				for _, s := range tr.Iters {
					rec.Trace = append(rec.Trace, [12]uint64{
						uint64(s.Iteration), uint64(s.Visited), uint64(s.Boundary), uint64(s.Interior),
						uint64(s.Batch), uint64(s.NewNodes), bit(s.GapValid),
						math.Float64bits(s.KthBound), math.Float64bits(s.RestBound), math.Float64bits(s.Gap),
						bit(s.Certified), math.Float64bits(s.DummyValue),
					})
				}
				out = append(out, rec)
			}
		}
	}
	return out
}

// encodeDriverPaths renders one record per line so a drifted scenario is one
// changed line in a diff.
func encodeDriverPaths(t *testing.T, recs []pathRecord) []byte {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(recs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// TestDriverPaths replays every pinned scenario and requires the rendered
// file to match the committed one byte for byte.
func TestDriverPaths(t *testing.T) {
	got := captureDriverPaths(t)
	enc := encodeDriverPaths(t, got)
	if os.Getenv("FLOS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(driverPathsFile, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("driver paths updated: %d scenarios", len(got))
		return
	}
	file, err := os.ReadFile(driverPathsFile)
	if err != nil {
		t.Fatalf("missing %s (run with FLOS_UPDATE_GOLDEN=1 to capture): %v", driverPathsFile, err)
	}
	if bytes.Equal(file, enc) {
		return
	}
	var want []pathRecord
	if err := json.Unmarshal(file, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d scenarios pinned, %d captured", len(want), len(got))
	}
	for i := range want {
		if d := diffPathRecord(want[i], got[i]); d != "" {
			t.Errorf("%s drifted: %s", want[i].Name, d)
		}
	}
	if !t.Failed() {
		t.Fatalf("%s differs from the capture in encoding only", driverPathsFile)
	}
}

// diffPathRecord names the first field (and trace row) where two records
// differ, or returns "".
func diffPathRecord(want, got pathRecord) string {
	for i := 0; i < len(want.Trace) && i < len(got.Trace); i++ {
		if want.Trace[i] != got.Trace[i] {
			return fmt.Sprintf("trace row %d\nwant %v\ngot  %v", i+1, want.Trace[i], got.Trace[i])
		}
	}
	if len(want.Trace) != len(got.Trace) {
		return fmt.Sprintf("trace has %d rows, want %d", len(got.Trace), len(want.Trace))
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for f := 0; f < wv.NumField(); f++ {
		if !reflect.DeepEqual(wv.Field(f).Interface(), gv.Field(f).Interface()) {
			return fmt.Sprintf("%s\nwant %v\ngot  %v", wv.Type().Field(f).Name, wv.Field(f).Interface(), gv.Field(f).Interface())
		}
	}
	return ""
}
