package core

// The byte count Workspace.Trim decides on, held against an independent
// walk. The walk finds every slice field of localSearch, phpEngine and
// thtEngine through reflect, so a field added later cannot escape the
// production count: it shows up here as a difference the moment a search
// gives it a length.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// fixedSlack bounds what a pooled workspace retains beyond twice the cap
// and its node index: the engines' fixed-size arrays and scratch sized by
// one node's degree.
const fixedSlack = 64 << 10

// walkBytes walks every field of the struct v. used sums each slice's
// length times its element size, inner rows included; retained sums
// capacities, inner rows up to the outer capacity, which is what the
// workspace keeps alive. The node index is left out of both, and so are
// slices that belong to the graph: the degree index behind wsbarGuard and,
// on a stable backend, the adjacency rows.
func walkBytes(t *testing.T, v reflect.Value, stable bool) (used, retained int) {
	t.Helper()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f, fv := typ.Field(i), v.Field(i)
		switch {
		case f.Type == reflect.TypeOf(nodeIndex{}):
			continue
		case typ == reflect.TypeOf(wsbarGuard{}) && f.Name == "top":
			continue
		}
		switch f.Type.Kind() {
		case reflect.Struct:
			u, r := walkBytes(t, fv, stable)
			used, retained = used+u, retained+r
		case reflect.Slice:
			elem := f.Type.Elem()
			used += fv.Len() * int(elem.Size())
			retained += fv.Cap() * int(elem.Size())
			if elem.Kind() != reflect.Slice {
				requireFlat(t, f.Name, elem)
				continue
			}
			requireFlat(t, f.Name, elem.Elem())
			if stable && (f.Name == "adjN" || f.Name == "adjW") {
				continue
			}
			inner := int(elem.Elem().Size())
			full := fv.Slice(0, fv.Cap())
			for j := 0; j < full.Len(); j++ {
				if j < fv.Len() {
					used += full.Index(j).Len() * inner
				}
				retained += full.Index(j).Cap() * inner
			}
		case reflect.Map, reflect.Pointer, reflect.Chan, reflect.Func:
			t.Fatalf("field %s.%s is a %v: extend usedBytes and this walk to count it", typ.Name(), f.Name, f.Type.Kind())
		case reflect.Array:
			requireFlat(t, f.Name, f.Type.Elem())
		}
	}
	return used, retained
}

// requireFlat fails when an element type holds memory of its own the walk
// would not see.
func requireFlat(t *testing.T, field string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		t.Fatalf("field %s holds %v elements: extend usedBytes and this walk to count them", field, typ)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			requireFlat(t, field, typ.Field(i).Type)
		}
	case reflect.Array:
		requireFlat(t, field, typ.Elem())
	}
}

// workspaceWalk returns walkBytes over ws's engines and the bytes its node
// index retains.
func workspaceWalk(t *testing.T, ws *Workspace) (used, retained, index int) {
	t.Helper()
	if ws.php != nil {
		used, retained = walkBytes(t, reflect.ValueOf(ws.php).Elem(), ws.php.stable)
	}
	if ws.tht != nil {
		u, r := walkBytes(t, reflect.ValueOf(ws.tht).Elem(), ws.tht.stable)
		used, retained = used+u, retained+r
	}
	if x := ws.index(); x != nil {
		index = 4*cap(x.idx) + 4*cap(x.gen)
	}
	return used, retained, index
}

// requireCount holds UsedBytes to the walk's length-based count.
func requireCount(t *testing.T, label string, ws *Workspace) (used, retained, index int) {
	t.Helper()
	used, retained, index = workspaceWalk(t, ws)
	if got := ws.UsedBytes(); got != used {
		t.Fatalf("%s: UsedBytes = %d, the walk counts %d", label, got, used)
	}
	return used, retained, index
}

// TestUsedBytesMatchesWalk runs fresh, warm and trimmed workspaces through
// a mix of searches over and under WorkspaceCap, on a stable backend and a
// copying one. After every search the production count equals the walk's,
// and after every Trim (what a pool keeps) the retained capacity is at most
// 2 × WorkspaceCap + the node index + fixedSlack. A trim keeps the index's
// backing array and the next answer equals a fresh workspace's.
func TestUsedBytesMatchesWalk(t *testing.T) {
	mem, err := gen.Erdos(6000, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		kind    measure.Kind
		q       graph.NodeID
		k       int
		eps     float64
		unified bool
	}
	queries := []query{
		{measure.PHP, 7, 10, 1e-3, false},
		{measure.THT, 8, 10, 0, false},
		{measure.THT, 9, 200, 0, false}, // whole graph: over the cap
		{measure.RWR, 10, 10, 1e-3, false},
		{measure.PHP, 11, 200, 0, false}, // over the cap
		{measure.PHP, 12, 10, 0, true},
		{measure.RWR, 13, 200, 0, false}, // over the cap
		{measure.THT, 14, 10, 0, false},
		{measure.DHT, 15, 20, 0, false},
	}
	for _, b := range []struct {
		name string
		g    graph.Graph
	}{{"mem", mem}, {"disk", diskVariant(t, mem)}} {
		t.Run(b.name, func(t *testing.T) {
			ctx := context.Background()
			ws := NewWorkspace()
			if used, retained, _ := requireCount(t, "fresh", ws); used != 0 || retained != 0 {
				t.Fatalf("fresh workspace counts %d used, %d retained bytes", used, retained)
			}
			trims := 0
			for pass := 0; pass < 2; pass++ {
				for _, qu := range queries {
					label := fmt.Sprintf("pass %d %v q=%d k=%d unified=%v", pass, qu.kind, qu.q, qu.k, qu.unified)
					opt := DefaultOptions(qu.kind, qu.k)
					if qu.eps > 0 {
						opt.Mode, opt.Epsilon = ModeEpsilon, qu.eps
					}
					var got, want any
					var err1, err2 error
					if qu.unified {
						got, err1 = ws.Unified(ctx, b.g, qu.q, opt)
						want, err2 = NewWorkspace().Unified(ctx, b.g, qu.q, opt)
					} else {
						got, err1 = ws.TopK(ctx, b.g, qu.q, opt)
						want, err2 = NewWorkspace().TopK(ctx, b.g, qu.q, opt)
					}
					if err1 != nil || err2 != nil {
						t.Fatalf("%s: %v / %v", label, err1, err2)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: answer differs from a fresh workspace's", label)
					}
					used, _, _ := requireCount(t, label, ws)

					x := ws.index()
					kept := ws.Trim()
					if trimmed := used > WorkspaceCap; trimmed != (kept != ws) {
						t.Fatalf("%s: %d bytes used against a cap of %d, but Trim trimmed = %v", label, used, WorkspaceCap, kept != ws)
					}
					if kept != ws {
						trims++
						if y := kept.index(); y == nil || &y.gen[0] != &x.gen[0] || &y.idx[0] != &x.idx[0] || y.cur != x.cur {
							t.Fatalf("%s: the trimmed workspace lost the node index", label)
						}
					}
					used, retained, index := requireCount(t, label+" trimmed", kept)
					if used > WorkspaceCap || retained > 2*WorkspaceCap+index+fixedSlack {
						t.Fatalf("%s: a pooled workspace keeps %d bytes in use and retains %d (index %d), bound %d",
							label, used, retained, index, 2*WorkspaceCap+index+fixedSlack)
					}
					ws = kept
				}
			}
			if trims != 6 {
				t.Fatalf("%d trims, want the six searches over the cap", trims)
			}
		})
	}
}
