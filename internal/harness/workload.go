package harness

import (
	"flos/internal/graph"
)

// Queries samples `count` query nodes uniformly from the largest connected
// component of g, deterministically in seed — the harness analogue of the
// paper's "10^3 randomly picked query nodes" (the count is a knob because a
// thousand GI runs on the larger stand-ins would dominate wall time).
func Queries(g graph.Graph, count int, seed uint64) []graph.NodeID {
	lc := graph.LargestComponentNodes(g)
	return sampleFrom(lc, count, seed)
}

func sampleFrom(pool []graph.NodeID, count int, seed uint64) []graph.NodeID {
	if count >= len(pool) {
		return append([]graph.NodeID(nil), pool...)
	}
	state := seed
	if state == 0 {
		state = 0x9e3779b97f4a7c15
	}
	out := make([]graph.NodeID, 0, count)
	seen := map[graph.NodeID]bool{}
	for len(out) < count {
		state = splitmix(state)
		v := pool[state%uint64(len(pool))]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func splitmix(s uint64) uint64 {
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
