package qserve

import (
	"context"
	"reflect"
	"testing"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// slotWorkspaces returns the workspace of every slot of an idle pool, in
// the order the slots will next be taken.
func slotWorkspaces(p *Pool) []*core.Workspace {
	var out []*core.Workspace
	for range cap(p.slots) {
		s := <-p.slots
		out = append(out, s.ws)
		p.slots <- s
	}
	return out
}

// indexArray returns the address of the node index's stamp array in ws,
// or 0 when it has none. A workspace holds one index, in either engine.
func indexArray(t *testing.T, ws *core.Workspace) uintptr {
	t.Helper()
	var found uintptr
	v := reflect.ValueOf(ws).Elem()
	for _, engine := range []string{"php", "tht"} {
		e := v.FieldByName(engine)
		if e.IsNil() {
			continue
		}
		if gen := e.Elem().FieldByName("local").FieldByName("gen"); gen.Len() > 0 {
			if found != 0 {
				t.Fatal("workspace holds two node indexes")
			}
			found = gen.Pointer()
		}
	}
	return found
}

// TestSlotTrimsPastCap: a slot whose search used more than
// core.WorkspaceCap bytes (exact THT top-200 over 6,000 nodes, about
// 2.9 MB) goes back with a trimmed workspace: under the cap, with the same
// node index backing array, and answering the next query like a fresh
// search.
func TestSlotTrimsPastCap(t *testing.T) {
	g, err := gen.Erdos(6000, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{CacheEntries: -1})
	defer pool.Close()
	ctx := context.Background()
	n := cap(pool.slots)

	// Sequential queries take the slots in turn: one small search each
	// gives every slot its node index.
	small := core.DefaultOptions(measure.PHP, 10)
	for i := range n {
		if _, err := pool.Do(ctx, Request{Query: graph.NodeID(i), Opt: small}); err != nil {
			t.Fatal(err)
		}
	}
	before := slotWorkspaces(pool)
	for i := range n {
		if _, err := pool.Do(ctx, Request{Query: graph.NodeID(100 + i), Opt: core.DefaultOptions(measure.THT, 200)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, ws := range slotWorkspaces(pool) {
		if ws == before[i] {
			t.Fatalf("slot %d kept its workspace after a search over the cap", i)
		}
		if used := ws.UsedBytes(); used > core.WorkspaceCap {
			t.Fatalf("slot %d keeps %d bytes in use, cap %d", i, used, core.WorkspaceCap)
		}
		if a, b := indexArray(t, ws), indexArray(t, before[i]); a == 0 || a != b {
			t.Fatalf("slot %d: node index at %#x after the trim, %#x before", i, a, b)
		}
	}
	for i := range n {
		q := graph.NodeID(200 + i)
		resp, err := pool.Do(ctx, Request{Query: q, Opt: small})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.TopK(g, q, small)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.TopK, want) {
			t.Fatalf("Do(%d) after a trim = %+v, want %+v", q, resp.TopK, want)
		}
	}
}

// TestExactHeavyShapeNeverTrims: on the exact top-200 shape (Erdős
// G(2,000, 10,000), seed 11, PHP, RWR and THT in turn) every search fits
// under core.WorkspaceCap with both engines' slices counted, so no slot
// ever trims: each keeps the workspace it started with.
func TestExactHeavyShapeNeverTrims(t *testing.T) {
	g, err := gen.Erdos(2000, 10000, 11)
	if err != nil {
		t.Fatal(err)
	}
	pool := New(g, Config{CacheEntries: -1})
	defer pool.Close()
	before := slotWorkspaces(pool)
	// Sequential queries take the slots in turn; each slot cycles the
	// three measures whatever the slot count.
	kinds := [3]measure.Kind{measure.PHP, measure.RWR, measure.THT}
	for round := range 6 {
		for s := range before {
			q := graph.NodeID(37 * (round*len(before) + s) % 2000)
			req := Request{Query: q, Opt: core.DefaultOptions(kinds[(round+s)%3], 200)}
			if _, err := pool.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, ws := range slotWorkspaces(pool) {
		if ws != before[i] {
			t.Fatalf("slot %d trimmed its workspace on the exact top-200 shape", i)
		}
		if indexArray(t, ws) == 0 {
			t.Fatalf("slot %d ran no search", i)
		}
	}
}
