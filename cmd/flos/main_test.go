package main

import (
	"slices"
	"strings"
	"testing"

	"flos/internal/core"
	"flos/internal/gen"
	"flos/internal/graph"
	"flos/internal/measure"
)

// TestCertifyUnified: the -unified -certify audit accepts a real unified
// answer, and rejects it, naming the family, once one node of either
// ranking is swapped for the node the exact solve ranks last.
func TestCertifyUnified(t *testing.T) {
	g, err := gen.RMAT(500, 2500, gen.DefaultRMAT(), 3)
	if err != nil {
		t.Fatal(err)
	}
	q := graph.LargestComponentNodes(g)[0]
	opt := core.DefaultOptions(measure.PHP, 10)
	res, err := core.UnifiedTopK(g, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := certifyUnified(g, q, res, opt.Params, 1e-7); err != nil {
		t.Fatalf("exact unified answer rejected: %v", err)
	}

	rwr := opt.Params
	rwr.C = 1 - opt.Params.C
	for _, fam := range []struct {
		name string
		kind measure.Kind
		p    measure.Params
		list func(*core.UnifiedResult) []measure.Ranked
	}{
		{"PHP-family", measure.PHP, opt.Params, func(r *core.UnifiedResult) []measure.Ranked { return r.TopK }},
		{"RWR", measure.RWR, rwr, func(r *core.UnifiedResult) []measure.Ranked { return r.RWR }},
	} {
		t.Run(fam.name, func(t *testing.T) {
			scores, _, err := measure.Exact(g, q, fam.kind, fam.p)
			if err != nil {
				t.Fatal(err)
			}
			bad := *res
			bad.TopK = slices.Clone(res.TopK)
			bad.RWR = slices.Clone(res.RWR)
			list := fam.list(&bad)
			outsider := graph.NodeID(-1)
			for v := range scores {
				id := graph.NodeID(v)
				if id != q && !slices.ContainsFunc(list, func(r measure.Ranked) bool { return r.Node == id }) &&
					(outsider < 0 || scores[v] < scores[outsider]) {
					outsider = id
				}
			}
			last := &list[len(list)-1]
			if scores[outsider] >= scores[last.Node]-1e-6 {
				t.Fatalf("outsider %d scores %g, no lower than ranked node %d at %g", outsider, scores[outsider], last.Node, scores[last.Node])
			}
			last.Node = outsider
			err = certifyUnified(g, q, &bad, opt.Params, 1e-7)
			if err == nil || !strings.HasPrefix(err.Error(), fam.name+" ranking:") {
				t.Fatalf("swapped %s ranking: err %v, want a %s failure", fam.name, err, fam.name)
			}
		})
	}
}
