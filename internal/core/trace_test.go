package core

import (
	"fmt"
	"reflect"
	"testing"

	"flos/internal/gen"
	"flos/internal/measure"
)

// TestTracerTrajectoryCertifies runs a traced query per measure and checks
// the trajectory invariants: iterations count up, the visited set grows
// monotonically, the work totals match the Result counters, and the final
// entry certifies the stopping rule — the k-th candidate's certified-side
// bound clears the best competing bound (Gap >= -TieEps).
func TestTracerTrajectoryCertifies(t *testing.T) {
	g, err := gen.Community(3000, 9000, gen.DefaultCommunityParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []measure.Kind{measure.PHP, measure.EI, measure.DHT, measure.THT, measure.RWR} {
		opt := DefaultOptions(kind, 8)
		tc := &TraceCollector{}
		opt.Tracer = tc
		res, err := TopK(g, 42, opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !res.Exact {
			t.Fatalf("%v: inexact result on an uncapped search", kind)
		}
		if len(tc.Iters) == 0 {
			t.Fatalf("%v: empty trajectory", kind)
		}
		prevVisited := 0
		for i, it := range tc.Iters {
			if it.Iteration != i+1 {
				t.Fatalf("%v: entry %d has iteration %d", kind, i, it.Iteration)
			}
			if it.Visited < prevVisited {
				t.Errorf("%v: visited shrank %d -> %d at iter %d", kind, prevVisited, it.Visited, it.Iteration)
			}
			prevVisited = it.Visited
			if it.Boundary < 0 || it.Interior < 0 || it.Boundary+it.Interior >= it.Visited+1 {
				t.Errorf("%v iter %d: counts boundary=%d interior=%d visited=%d",
					kind, it.Iteration, it.Boundary, it.Interior, it.Visited)
			}
			if it.Certified && i != len(tc.Iters)-1 {
				t.Errorf("%v: certified at iter %d before the final entry", kind, it.Iteration)
			}
		}
		last := tc.Iters[len(tc.Iters)-1]
		if !last.Certified {
			t.Fatalf("%v: final entry not certified: %+v", kind, last)
		}
		if !last.GapValid {
			t.Fatalf("%v: final entry has no gap: %+v", kind, last)
		}
		if last.Gap < -TieEps {
			t.Errorf("%v: final gap %g violates the stopping rule (kth=%g rest=%g)",
				kind, last.Gap, last.KthBound, last.RestBound)
		}
		if last.Visited != res.Visited || last.Iteration != res.Iterations {
			t.Errorf("%v: trace end (visited=%d iter=%d) != result (visited=%d iter=%d)",
				kind, last.Visited, last.Iteration, res.Visited, res.Iterations)
		}

		// Tracing must not perturb the answer.
		plain, err := TopK(g, 42, DefaultOptions(kind, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.TopK, res.TopK) {
			t.Errorf("%v: traced result differs from untraced: %v vs %v", kind, res.TopK, plain.TopK)
		}
	}
}

// TestTracerUnified checks the unified search emits a certified trajectory.
func TestTracerUnified(t *testing.T) {
	g, err := gen.Community(3000, 9000, gen.DefaultCommunityParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(measure.PHP, 6)
	tc := &TraceCollector{}
	opt.Tracer = tc
	res, err := UnifiedTopK(g, 7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Iters) == 0 {
		t.Fatal("empty trajectory")
	}
	last := tc.Iters[len(tc.Iters)-1]
	if !last.Certified || last.Iteration != res.Iterations || last.Visited != res.Visited {
		t.Fatalf("final entry %+v vs result iters=%d visited=%d", last, res.Iterations, res.Visited)
	}
	if !last.GapValid || last.Gap < -TieEps {
		t.Fatalf("final gap not certifying: %+v", last)
	}
}

// TestTracerGapConvergesFromViolation: early iterations of a non-trivial
// search must show an uncertified gap (negative margin or no candidates
// yet); certification is reached, not assumed.
func TestTracerGapConvergesFromViolation(t *testing.T) {
	g, err := gen.Community(3000, 9000, gen.DefaultCommunityParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(measure.RWR, 10)
	tc := &TraceCollector{}
	opt.Tracer = tc
	if _, err := TopK(g, 42, opt); err != nil {
		t.Fatal(err)
	}
	if len(tc.Iters) < 2 {
		t.Skipf("search certified in %d iteration(s); nothing to observe", len(tc.Iters))
	}
	first := tc.Iters[0]
	if first.Certified {
		t.Fatalf("first iteration already certified: %+v", first)
	}
	if first.GapValid && first.Gap >= -TieEps {
		t.Fatalf("first iteration gap %g already non-negative yet search continued", first.Gap)
	}
}

// orderObserver records the order its two callbacks fire in.
type orderObserver struct{ calls []string }

func (o *orderObserver) ObserveIteration(s IterStats) {
	o.calls = append(o.calls, fmt.Sprintf("stats %d", s.Iteration))
}

func (o *orderObserver) ObserveSnapshot(ev TraceEvent) {
	o.calls = append(o.calls, fmt.Sprintf("snapshot %d", ev.Iteration))
}

// TestSnapshotPrecedesIterStats: every family goes through the one driver,
// so a SnapshotObserver gets each iteration's snapshot and then its
// IterStats — for the THT engine and the unified search too.
func TestSnapshotPrecedesIterStats(t *testing.T) {
	g := gen.PaperExample()
	for _, family := range []string{"PHP", "THT", "unified"} {
		obs := &orderObserver{}
		opt := DefaultOptions(measure.PHP, 2)
		opt.Tracer = obs
		iters := 0
		if family == "unified" {
			res, err := UnifiedTopK(g, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		} else {
			opt.Measure, _ = kindByName(family)
			res, err := TopK(g, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		}
		var want []string
		for i := 1; i <= iters; i++ {
			want = append(want, fmt.Sprintf("snapshot %d", i), fmt.Sprintf("stats %d", i))
		}
		if !reflect.DeepEqual(obs.calls, want) {
			t.Errorf("%s: callbacks fired as %v, want %v", family, obs.calls, want)
		}
	}
}
