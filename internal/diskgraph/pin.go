package diskgraph

import (
	"math/bits"
	"sync/atomic"

	"flos/internal/graph"
)

// pinSet is the store's set of pinned hub rows: the rows its byte budget
// keeps in memory, decoded, so a visit to one costs neither a lock nor a
// syscall. Open chooses the rows; each is filled on its first read. The
// index is a bitmap over the nodes plus each pinned row's (slot's, in node
// order) place in the arena: bits marks v, rank[v/64] counts the slots
// before v's word, and slot i's row is nbrs/ws[start[i]:start[i+1]]. A
// slot goes empty → filling → ready once (a failed fill goes back to
// empty), and a ready slot is never written again.
type pinSet struct {
	bits  []uint64
	rank  []uint32
	start []int64
	state []atomic.Uint32
	nbrs  []graph.NodeID
	ws    []float64

	filledRows  atomic.Int64
	filledBytes atomic.Int64
}

// The states of a slot.
const slotEmpty, slotFilling, slotReady uint32 = 0, 1, 2

// newPinSet chooses the rows budget bytes pin, at 12 B per half-edge as on
// disk: longest first, ties by ascending node ID, until the next row would
// overflow the budget; an empty row or one longer than the whole budget is
// never pinned. A histogram of row lengths finds the cut in O(n): every row
// longer than cut is pinned, and the first extra rows of length cut.
func newPinSet(off []int64, budget int64) *pinSet {
	n := len(off) - 1
	maxLen := budget / rowEntrySz
	var longest int64
	for v := range n {
		if l := off[v+1] - off[v]; l <= maxLen {
			longest = max(longest, l)
		}
	}
	hist := make([]int64, longest+1)
	for v := range n {
		if l := off[v+1] - off[v]; l <= maxLen {
			hist[l]++
		}
	}
	left, cut, extra, slots := maxLen, int64(0), int64(0), int64(0)
	for l := longest; l > 0; l-- {
		if hist[l]*l > left {
			cut, extra = l, left/l
			slots += extra
			break
		}
		left -= hist[l] * l
		slots += hist[l]
	}

	words := (n + 63) / 64
	p := &pinSet{
		bits:  make([]uint64, words),
		rank:  make([]uint32, words),
		start: make([]int64, 1, slots+1),
		state: make([]atomic.Uint32, slots),
	}
	var total int64
	for v := range n {
		if v%64 == 0 {
			p.rank[v/64] = uint32(len(p.start) - 1)
		}
		l := off[v+1] - off[v]
		if l == 0 || l > maxLen || l < cut || l == cut && extra == 0 {
			continue
		}
		if l == cut {
			extra--
		}
		p.bits[v/64] |= 1 << (v % 64)
		total += l
		p.start = append(p.start, total)
	}
	p.nbrs = make([]graph.NodeID, total)
	p.ws = make([]float64, total)
	return p
}

// slot returns v's slot, or -1 when v's row is not pinned.
func (p *pinSet) slot(v graph.NodeID) int {
	w, b := p.bits[v/64], uint(v%64)
	if w>>b&1 == 0 {
		return -1
	}
	return int(p.rank[v/64]) + bits.OnesCount64(w&(1<<b-1))
}

// row returns slot i's arena slices, capped so an append cannot reach the
// next row.
func (p *pinSet) row(i int) ([]graph.NodeID, []float64) {
	a, b := p.start[i], p.start[i+1]
	return p.nbrs[a:b:b], p.ws[a:b:b]
}
