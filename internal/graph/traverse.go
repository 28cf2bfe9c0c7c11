package graph

// Traversal helpers shared by the baselines: LS_THT and the embedding
// baseline need hop distances, the Monte Carlo THT baseline a k-hop
// candidate set.

// BFSDistances returns hop distances from src to every node; unreachable
// nodes get -1. maxHops < 0 means unlimited.
func BFSDistances(g Graph, src NodeID, maxHops int) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []NodeID{src}
	for hop := int32(1); len(frontier) > 0; hop++ {
		if maxHops >= 0 && int(hop) > maxHops {
			break
		}
		var next []NodeID
		for _, v := range frontier {
			nbrs, _ := g.Neighbors(v)
			for _, u := range nbrs {
				if dist[u] < 0 {
					dist[u] = hop
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// KHopNeighborhood returns all nodes within maxHops hops of src (src
// included), in BFS order.
func KHopNeighborhood(g Graph, src NodeID, maxHops int) []NodeID {
	seen := map[NodeID]bool{src: true}
	order := []NodeID{src}
	frontier := []NodeID{src}
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, v := range frontier {
			nbrs, _ := g.Neighbors(v)
			for _, u := range nbrs {
				if !seen[u] {
					seen[u] = true
					order = append(order, u)
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return order
}

// Subgraph materializes the induced subgraph on nodes. The i-th node of the
// result corresponds to nodes[i]; the mapping back to original identifiers is
// returned alongside. Edges with exactly one endpoint inside are dropped —
// note that the induced subgraph's transition probabilities therefore differ
// from the original graph's (degrees shrink), which is precisely the error
// the cluster-based LS baselines inherit and FLoS avoids by keeping original
// degrees.
func Subgraph(g Graph, nodes []NodeID) (*MemGraph, []NodeID, error) {
	index := make(map[NodeID]NodeID, len(nodes))
	for i, v := range nodes {
		index[v] = NodeID(i)
	}
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		nbrs, ws := g.Neighbors(v)
		for j, u := range nbrs {
			iu, ok := index[u]
			if !ok || iu <= NodeID(i) {
				continue // keep each undirected edge once
			}
			if err := b.AddEdge(NodeID(i), iu, ws[j]); err != nil {
				return nil, nil, err
			}
		}
	}
	sg, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	back := append([]NodeID(nil), nodes...)
	return sg, back, nil
}
