package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes structural statistics of a graph. It backs the dataset
// tables (paper Tables 4, 6, 7) and is handy when validating that a
// synthetic stand-in matches the density profile of the paper's datasets.
type Stats struct {
	Nodes        int
	Edges        int64
	Density      float64 // average degree 2m/n (the paper's Table 6 column is m/n)
	MinDegree    float64
	MaxDegree    float64
	MeanDegree   float64
	MedianDegree float64
	Isolated     int // degree-zero nodes
	Components   int
	LargestComp  int
}

// ComputeStats scans g once (plus a BFS sweep for components).
func ComputeStats(g Graph) Stats {
	n := g.NumNodes()
	s := Stats{
		Nodes:     n,
		Edges:     g.NumEdges(),
		MinDegree: math.Inf(1),
	}
	degs := make([]float64, n)
	var sum float64
	for v := 0; v < n; v++ {
		d := g.Degree(NodeID(v))
		degs[v] = d
		sum += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	if n > 0 {
		s.MeanDegree = sum / float64(n)
		s.Density = 2 * float64(s.Edges) / float64(n)
		sort.Float64s(degs)
		s.MedianDegree = degs[n/2]
	}
	s.Components, s.LargestComp = components(g)
	return s
}

// String formats the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d density=%.1f degree[min=%.0f med=%.0f mean=%.1f max=%.0f] comps=%d largest=%d",
		s.Nodes, s.Edges, s.Density, s.MinDegree, s.MedianDegree, s.MeanDegree, s.MaxDegree, s.Components, s.LargestComp)
}

// components counts connected components and the size of the largest one.
func components(g Graph) (count, largest int) {
	n := g.NumNodes()
	seen := make([]bool, n)
	queue := make([]NodeID, 0, 1024)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		count++
		size := 0
		queue = append(queue[:0], NodeID(start))
		seen[start] = true
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			nbrs, _ := g.Neighbors(v)
			for _, u := range nbrs {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return count, largest
}

// LargestComponentNodes returns the node set of the largest connected
// component. Workload generators sample query nodes from it so every query
// has a nonempty answer, mirroring the paper's use of connected SNAP cores.
func LargestComponentNodes(g Graph) []NodeID {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var (
		queue   []NodeID
		bestID  int32 = -1
		bestSz  int
		current int32
	)
	sizes := []int{}
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		size := 0
		queue = append(queue[:0], NodeID(start))
		comp[start] = current
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			nbrs, _ := g.Neighbors(v)
			for _, u := range nbrs {
				if comp[u] < 0 {
					comp[u] = current
					queue = append(queue, u)
				}
			}
		}
		sizes = append(sizes, size)
		if size > bestSz {
			bestSz, bestID = size, current
		}
		current++
	}
	out := make([]NodeID, 0, bestSz)
	for v := 0; v < n; v++ {
		if comp[v] == bestID {
			out = append(out, NodeID(v))
		}
	}
	return out
}
