package core

import (
	"context"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// Regression tests pinning the deterministic expansion schedule: both
// engines break expansion-priority ties toward the smaller global
// identifier, and the schedule is identical cold (fresh Workspace) and warm
// (workspace reused after unrelated queries). The boundary list refactor
// must never change which node expands when.

// TestPickExpansionTieBreakSmallerID: on a ring queried at node 0, the two
// boundary nodes after the first expansion carry exactly equal (unsolved)
// bounds, so the pick order is decided purely by the tie rule. Both engines
// must break the tie toward the smaller global identifier.
func TestPickExpansionTieBreakSmallerID(t *testing.T) {
	g := gen.Ring(10)

	t.Run("php", func(t *testing.T) {
		e := NewWorkspace().phpFor(g, 0, measure.Params{C: 0.5, Tau: 1e-10, MaxIter: 100000}, Options{})
		expand(e, 0, nil) // visit 1 and 9; both boundary, both lb=0 ub=1
		us := pick(e.keys(measure.PHP), 2)
		got := localToGlobal(e.nodes, us)
		if len(got) != 2 || got[0] != 1 || got[1] != 9 {
			t.Fatalf("tied pick order = %v, want [1 9]", got)
		}
	})

	t.Run("tht", func(t *testing.T) {
		e := NewWorkspace().thtFor(g, 0, 6)
		expand(e, 0, nil) // visit 1 and 9; both boundary, unsolved bounds equal
		us := pick(e.keys(measure.THT), 2)
		got := localToGlobal(e.nodes, us)
		if len(got) != 2 || got[0] != 1 || got[1] != 9 {
			t.Fatalf("THT tied pick order = %v, want [1 9]", got)
		}
	})
}

func localToGlobal(nodes []graph.NodeID, ls []int32) []graph.NodeID {
	out := make([]graph.NodeID, len(ls))
	for i, l := range ls {
		out[i] = nodes[l]
	}
	return out
}

// expansionSchedule runs one query and records, per iteration, the first
// expanded node and every newly visited node, via a snapshot-observing
// Tracer (which shares the untraced schedule by contract).
func expansionSchedule(t *testing.T, g graph.Graph, q graph.NodeID, opt Options, ws *Workspace) [][]graph.NodeID {
	t.Helper()
	sc := &SnapshotCollector{}
	opt.Tracer = sc
	var err error
	if ws != nil {
		_, err = ws.TopK(context.Background(), g, q, opt)
	} else {
		_, err = TopK(g, q, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	sched := make([][]graph.NodeID, 0, len(sc.Events))
	for _, ev := range sc.Events {
		sched = append(sched, append([]graph.NodeID{ev.Expanded}, ev.NewNodes...))
	}
	return sched
}

// TestExpansionOrderColdWarm: the full expansion schedule — which node is
// picked and which nodes join S, every iteration — is identical for a cold
// engine and a warm workspace whose engines are dirty from prior queries on
// the same and on a different graph. Grids are tie-dense (symmetric
// bounds), so any tie-break or iteration-order drift shows up here.
func TestExpansionOrderColdWarm(t *testing.T) {
	grid := gen.Grid(9, 11)
	other := randomConnected(t, 120, 260, 3)

	for _, kind := range []measure.Kind{measure.PHP, measure.RWR, measure.THT} {
		t.Run(kind.String(), func(t *testing.T) {
			opt := testOptions(kind, 6)
			cold := expansionSchedule(t, grid, 40, opt, nil)

			ws := NewWorkspace()
			// Dirty the pooled engines: different graph, then same graph
			// with a different query.
			if _, err := ws.TopK(context.Background(), other, 7, opt); err != nil {
				t.Fatal(err)
			}
			if _, err := ws.TopK(context.Background(), grid, 93, opt); err != nil {
				t.Fatal(err)
			}
			warm := expansionSchedule(t, grid, 40, opt, ws)

			if len(cold) != len(warm) {
				t.Fatalf("iteration counts differ: cold %d, warm %d", len(cold), len(warm))
			}
			for it := range cold {
				if len(cold[it]) != len(warm[it]) {
					t.Fatalf("iter %d: row lengths differ: cold %v warm %v", it+1, cold[it], warm[it])
				}
				for j := range cold[it] {
					if cold[it][j] != warm[it][j] {
						t.Fatalf("iter %d: expansion schedule diverged at %d: cold %v warm %v",
							it+1, j, cold[it], warm[it])
					}
				}
			}
		})
	}
}
