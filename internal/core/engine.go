package core

import (
	"math"
	"math/bits"
	"slices"

	"flos/internal/graph"
	"flos/internal/measure"
)

// phpEngine is the native FLoS bound engine for PHP-shaped systems
// (r = c·T·r + e_q with the query row zeroed). On top of the shared
// localSearch substrate and its transition rows it maintains, over the
// visited set S:
//
//   - the lower-bound system: every transition probability touching an
//     unvisited node deleted (Theorem 3 / Section 4.2);
//   - the upper-bound system: every boundary-crossing transition redirected
//     into a dummy node d of constant value rd (Theorem 5 / Section 4.3),
//     where rd bounds every unvisited node through the shell bound R (see
//     updateDummy).
//
// All node bookkeeping is in local indices 0..len(nodes)-1; local index 0 is
// always the query.
//
// The two bound values of a node live interleaved in one struct-of-arrays
// store: bnd[2i] is the lower bound, bnd[2i+1] the upper. The fused solver
// (solve) relaxes both systems in one pass, so the second system finds
// the row entries and its neighbors' bound pair already in cache instead of
// re-traversing rows[i] cold.
//
// A newly visited node's upper bound starts at r_d: the node was unvisited
// when updateDummy last set r_d, so PHP(v) ≤ r_d. Any start at or above PHP
// is valid, because every coordinate relaxation of the monotone upper-bound
// map F keeps x ≥ PHP (PHP ≤ F(PHP) by Lemmas 3–4). The trivial start, 1,
// would set off a relaxation cascade through the neighborhood on every
// visit. A relaxation never raises an upper bound: both the old value and
// the relaxed one are valid, so the solver keeps the smaller. That caps a
// newly visited node at the r_d it was visited under, which is what keeps it
// from loosening the certification gap (DESIGN.md §5), and it is the
// monotonicity the lazy shell bound rests on (shellBound).
//
// An engine lives in a Workspace and is reusable: reset prepares it for a
// new query while keeping every slice's backing storage and logically
// clearing the global→local index with a generation bump (see
// workspace.go).
type phpEngine struct {
	localSearch

	c       float64
	tau     float64
	maxIter int

	// bnd is the interleaved bound store: lower bound of local node i at
	// bnd[2i], upper bound at bnd[2i+1]. Use lbAt/ubAt outside hot loops.
	bnd []float64
	rd  float64 // dummy-node value

	// Worklist state for the residual-driven bound solver: one queue per
	// bound side, with membership bitmaps and per-node accumulated input
	// drift (pend). A node re-relaxes once its inputs have cumulatively
	// moved enough to shift it by more than τ — individual sub-τ changes
	// accumulate instead of being dropped, so the solved bounds track the
	// Jacobi-to-τ solution.
	queueLB, queueUB []int32
	inQLB, inQUB     []bool
	pendLB, pendUB   []float64

	// The shell, the unvisited neighbors of S, as the shell bound reads it
	// (see shellBound). A node gets a shell slot when a neighbor is
	// visited; the slot rides the dense index (nodeIndex.putShell) until
	// the node itself is visited, which kills it. A slot's S-edges are a
	// chain through sEdges in the order they joined S. dirty lists the
	// slots that gained an edge since the last evaluation; every other live
	// slot sits in the key bucket of its last exact ratio, linked through
	// the slot array from bucketHead, with bucketBits marking the non-empty
	// buckets.
	shell      []shellSlot
	sEdges     []shellEdge
	dirty      []int32
	bucketHead [shellBuckets]int32
	bucketBits [shellBuckets / 64]uint64
	evalGen    uint32 // the shell bound evaluation now running

	shellReads   int // S-edge entries the shell bound read
	degreeProbes int // Degree reads, repeats included

	// wSbar serves the RWR stopping rule's w(S̄) guard: the largest degree
	// among unvisited nodes, read off the graph's degree index through a
	// cursor that persists for the query.
	wSbar wsbarGuard

	// Footprint capture (Options.CaptureFootprint): probed collects the
	// shell nodes whose Degree was read, once each, and lastGuard records
	// the final w(S̄) ceiling an RWR search certified against. Both feed
	// surgical cache invalidation.
	capProbes bool
	probed    []graph.NodeID
	lastGuard float64
}

// lbAt and ubAt expose the interleaved bound pair of local node i.
func (e *phpEngine) lbAt(i int32) float64 { return e.bnd[2*i] }
func (e *phpEngine) ubAt(i int32) float64 { return e.bnd[2*i+1] }

// reset prepares the engine for a new query with decay parameters p,
// reusing all retained storage. A reset engine behaves identically to a
// fresh one — the expansion schedule, solver sweeps, and results are
// byte-for-byte the same.
func (e *phpEngine) reset(g graph.Graph, q graph.NodeID, p measure.Params, opt Options) {
	e.c, e.tau, e.maxIter = p.C, p.Tau, p.MaxIter

	e.resetCommon(g, q)

	e.bnd = e.bnd[:0]
	e.queueLB = e.queueLB[:0]
	e.queueUB = e.queueUB[:0]
	e.inQLB = e.inQLB[:0]
	e.inQUB = e.inQUB[:0]
	e.pendLB = e.pendLB[:0]
	e.pendUB = e.pendUB[:0]
	e.shell, e.sEdges, e.dirty = e.shell[:0], e.sEdges[:0], e.dirty[:0]
	for b := range e.bucketHead {
		e.bucketHead[b] = -1
	}
	clear(e.bucketBits[:])
	e.evalGen = 0
	e.shellReads = 0
	e.rd = 1
	e.degreeProbes = 0
	e.capProbes = opt.CaptureFootprint
	e.probed = e.probed[:0]
	e.lastGuard = 0

	e.visit(q)
	e.bnd[0] = 1 // lb_q
	e.bnd[1] = 1 // ub_q
	e.wSbar = newWSbarGuard(g)
}

// usedBytes counts the engine's slices for Workspace.UsedBytes. The degree
// index behind wSbar belongs to the graph.
func (e *phpEngine) usedBytes() int {
	return e.localSearch.usedBytes() + bytesOf(e.bnd) +
		bytesOf(e.queueLB) + bytesOf(e.queueUB) + bytesOf(e.inQLB) + bytesOf(e.inQUB) +
		bytesOf(e.pendLB) + bytesOf(e.pendUB) +
		bytesOf(e.shell) + bytesOf(e.sEdges) + bytesOf(e.dirty) + bytesOf(e.probed)
}

// visit pulls node v into S: the substrate maintains the visited-set and
// frontier bookkeeping and wires the transition entries in both directions,
// then this appends v's edges to its unvisited neighbors' shell slots and
// seeds the solver worklists. v's upper bound starts at r_d and is capped
// there (see phpEngine). Precondition: v not visited.
func (e *phpEngine) visit(v graph.NodeID) {
	if raw, ok := e.local.slot(v); ok {
		e.killSlot(-raw - 1) // v leaves the shell
	}
	li := e.visitCommon(v)

	for k, lu := range e.visitL {
		if lu >= 0 {
			continue
		}
		u := e.adjN[li][k]
		raw, seen := e.local.slot(u)
		si := -raw - 1
		if !seen {
			si = int32(len(e.shell))
			e.local.putShell(u, si)
			e.shell = append(e.shell, shellSlot{node: u, deg: -1, head: -1, tail: -1, prev: unfiled, next: -1})
		}
		e.addShellEdge(si, li, e.adjW[li][k])
	}

	e.bnd = append(e.bnd, 0, e.rd)
	e.inQLB = append(e.inQLB, false)
	e.inQUB = append(e.inQUB, false)
	e.pendLB = append(e.pendLB, 0)
	e.pendUB = append(e.pendUB, 0)
	e.enqueue(li)

	// Every already-visited neighbor gained an entry toward v, so it joins
	// the relaxation worklists.
	for _, lu := range e.visitL {
		if lu >= 0 {
			e.enqueue(lu)
		}
	}
}

// enqueue adds a node to both bound worklists.
func (e *phpEngine) enqueue(i int32) {
	if !e.inQLB[i] {
		e.inQLB[i] = true
		e.queueLB = append(e.queueLB, i)
	}
	if !e.inQUB[i] {
		e.inQUB[i] = true
		e.queueUB = append(e.queueUB, i)
	}
}

// outMass returns Σ_{j∉S} p_ij for local node i — the probability mass the
// upper bound redirects to the dummy node.
func (e *phpEngine) outMass(i int32) float64 { return e.outMassOf(i, 0) }

// probedNodes returns the captured Degree probes, each shell node once, in
// the sorted form ProbedNodes documents.
func (e *phpEngine) probedNodes() []graph.NodeID {
	slices.Sort(e.probed)
	return append([]graph.NodeID(nil), e.probed...)
}

// dummyEntry returns local node i's transition entry into the dummy node for
// the upper-bound system.
func (e *phpEngine) dummyEntry(i int32) float64 {
	if i == 0 || e.outCnt[i] == 0 { // local index 0 is the query
		return 0
	}
	return e.outMass(i)
}

// solve re-solves both bound systems to tolerance, warm-started from
// the previous bounds and the new nodes' start values (0 below, r_d above).
// Validity under truncation rests on the true PHP vector, not on the start
// being a sub- or super-solution of the grown system: both maps are
// monotone, G(PHP) ≤ PHP ≤ F(PHP) (Theorem 3, Lemmas 3–4), so a coordinate
// relaxation keeps lb ≤ PHP below and ub ≥ PHP above from any start on the
// right side. A new node's r_d start is not a super-solution: its own row
// may relax above r_d when it borders nodes with larger upper bounds, and
// the upper side keeps the smaller of the old and the relaxed value, both
// valid, so it stays at r_d.
//
// The solver is a residual-driven Gauss–Seidel relaxation over worklists
// rather than full Jacobi sweeps: expansion enqueues exactly the rows whose
// equations changed, each relaxation applies the closed-form update
//
//	r_i ← c·(Σ_j T_ij·r_j + dummy_i·r_d) + e_i
//
// (never above the previous value on the upper side) and charges the
// change to i's local neighbors, which re-enqueue once their accumulated
// input drift exceeds θ = τ/16. It reaches the same fixpoint as
// Algorithm 7's iteration with the same validity argument — but its cost
// tracks the changed region, not |S|, which matters because FLoS re-solves
// after every expansion.
//
// The Gauss–Seidel order (each relaxation reads its neighbors' latest values
// in place, FIFO over the worklist) is part of the observable behaviour: an
// update propagates within the same drain, so where inside the θ band the
// bounds stop decides at which expansion the stopping rule first separates,
// and with it the visited, iteration and sweep counters the golden suite
// pins bit for bit. A synchronous (Jacobi) schedule is equally valid but
// stops elsewhere in the band and needs more relaxations for the same
// tightness.
//
// The two systems share no mutable state — the lower side reads and writes
// only bnd[2i]/pendLB/inQLB, the upper only bnd[2i+1]/pendUB/inQUB/rd — so
// any interleaving of the two relaxation sequences produces bit-identical
// results to running them back to back. solve interleaves them 1:1:
// the queues are seeded in lockstep (enqueue adds to both), so the upper
// relaxation of a node usually runs right after its lower one, while
// rows[i] and the neighbors' interleaved bound pairs are still in cache —
// this is the fusion the struct-of-arrays bnd store exists for.
func (e *phpEngine) solve() {
	// Pop via head indexes rather than q = q[1:]: reslicing the front off
	// erodes the backing array's capacity one slot per pop, so the queues
	// (which persist across queries in a warm workspace) would reallocate
	// on nearly every append instead of amortizing to zero.
	//
	// The query is always local index 0 (reset visits it first), so the
	// loops test i == 0 instead of loading e.nodes[i] per row and neighbor.
	qlb, qub := e.queueLB, e.queueUB
	headLB, headUB := 0, 0
	budget := int64(e.maxIter) * int64(e.size())
	var processedLB, processedUB int64
	// The propagation threshold sits a factor 16 below τ so the relaxed
	// bounds are at least as tight as a Jacobi-to-τ solve — the RWR
	// termination guard compares quantities near the τ scale, where any
	// extra slack inflates the visited set.
	theta := e.tau / 16
	for {
		moreLB := headLB < len(qlb) && processedLB < budget
		moreUB := headUB < len(qub) && processedUB < budget
		if !moreLB && !moreUB {
			break
		}
		if moreLB {
			i := qlb[headLB]
			headLB++
			e.inQLB[i] = false
			e.pendLB[i] = 0
			processedLB++
			e.sweeps++
			if i == 0 {
				e.bnd[2*i] = 1
			} else {
				var s float64
				for _, en := range e.rows[i] {
					s += en.p * e.bnd[2*en.j]
				}
				v := e.c * s
				d := abs(v - e.bnd[2*i])
				e.bnd[2*i] = v
				if d != 0 {
					// Charge the change to every dependent row; a row
					// re-relaxes once its accumulated potential shift
					// exceeds theta. (c bounds the entry value times decay,
					// so c·d overestimates the per-row effect.)
					for _, en := range e.rows[i] {
						j := en.j
						if j == 0 {
							continue
						}
						e.pendLB[j] += e.c * d
						if !e.inQLB[j] && e.pendLB[j] > theta {
							e.inQLB[j] = true
							qlb = append(qlb, j)
						}
					}
				}
			}
		}
		if moreUB {
			i := qub[headUB]
			headUB++
			e.inQUB[i] = false
			e.pendUB[i] = 0
			processedUB++
			e.sweeps++
			if i == 0 {
				e.bnd[2*i+1] = 1
			} else {
				var s float64
				for _, en := range e.rows[i] {
					s += en.p * e.bnd[2*en.j+1]
				}
				s += e.dummyEntry(i) * e.rd
				v := e.c * s
				d := e.bnd[2*i+1] - v
				if d < 0 {
					v, d = e.bnd[2*i+1], 0 // an upper bound only falls
				}
				e.bnd[2*i+1] = v
				if d != 0 {
					for _, en := range e.rows[i] {
						j := en.j
						if j == 0 {
							continue
						}
						e.pendUB[j] += e.c * d
						if !e.inQUB[j] && e.pendUB[j] > theta {
							e.inQUB[j] = true
							qub = append(qub, j)
						}
					}
				}
			}
		}
	}
	// Drained or budget hit: compact the unprocessed tails to the front so
	// the inQ flags stay consistent with the queue contents and the full
	// backing capacity survives for the next call.
	n := copy(qlb, qlb[headLB:])
	e.queueLB = qlb[:n]
	n = copy(qub, qub[headUB:])
	e.queueUB = qub[:n]
}

// updateDummy lowers rd to the shell bound R of shellBound. R ≤
// c·max_{i∈δS} ub_i (DESIGN.md §5), so R is also min(max_{δS} ub, R), the
// paper's value (Algorithm 5 line 7) tightened by the shell. It must run
// BEFORE the expansion that moves from S^{t-1} to S^t, because R is proved
// against the previous boundary.
//
// A decrease smaller than τ/16 is skipped: a stale, larger r_d keeps every
// upper bound valid (it only loosens them), and skipping avoids re-relaxing
// the whole boundary for negligible gain. With the boundary exhausted no
// mass flows to the dummy: the shell is empty and R is 0.
func (e *phpEngine) updateDummy() {
	rd := e.shellBound()
	if e.bLive > 0 && e.rd-rd <= e.tau/16 {
		return
	}
	if rd >= e.rd {
		return
	}
	e.rd = rd
	// Every boundary equation references r_d; re-relax them.
	for _, i := range e.bList {
		if e.outCnt[i] > 0 && !e.inQUB[i] {
			e.inQUB[i] = true
			e.queueUB = append(e.queueUB, i)
		}
	}
}

// shellBound returns R, a bound on the PHP of every unvisited node that
// reads only S's rows, the current upper bounds and one Degree per shell
// node (DESIGN.md §5). For a shell node u with degree d_u, weight W_u into S
// and A_u = Σ_{j∈S} w_uj·ub_j, PHP(u) ≤ c·(A_u + (d_u − W_u)·M)/d_u, where M
// is the largest unvisited PHP; every node off the shell has PHP ≤ c·M. So
//
//	M ≤ R = max over shell u of c·A_u / ((1−c)·d_u + c·W_u).
//
// The maximum is found lazily (CELF): each slot keeps as its key the ratio
// A_u / ((1−c)·d_u + c·W_u) of its last exact evaluation. Between
// evaluations every upper bound only falls (solve never raises one), so
// A_u only falls and a stale key stays an upper bound on the slot's ratio;
// a new S-edge moves A_u and W_u up, and visit marks that slot dirty. An
// evaluation recomputes the dirty slots, then the stale members of the
// highest non-empty bucket, moving down those whose key fell, until that
// bucket holds only keys computed now: its largest is the maximum. A slot
// sums its edges in one fixed order, the order they joined S, and every
// rounded product and partial sum is monotone in the upper bounds, so the
// stale-key argument holds for the doubles too and R is the exact maximum
// of the rounded ratios.
func (e *phpEngine) shellBound() float64 {
	e.evalGen++
	for _, si := range e.dirty {
		if e.shell[si].node >= 0 { // not visited since it was marked
			e.rekey(si)
		}
	}
	e.dirty = e.dirty[:0]
	for {
		b := e.topBucket()
		if b < 0 {
			return 0 // the shell is empty
		}
		r := 0.0
		for si := e.bucketHead[b]; si >= 0; {
			sh := &e.shell[si]
			next := sh.next
			if sh.gen != e.evalGen {
				e.rekey(si)
			}
			r = max(r, sh.key) // exact now, wherever it is filed
			si = next
		}
		if e.bucketHead[b] >= 0 {
			return e.c * r
		}
	}
}

// rekey evaluates slot si's ratio exactly, reading its degree the first
// time, and files the slot under the new key.
func (e *phpEngine) rekey(si int32) {
	sh := &e.shell[si]
	if sh.deg < 0 {
		sh.deg = e.g.Degree(sh.node)
		e.degreeProbes++
		if e.capProbes {
			e.probed = append(e.probed, sh.node)
		}
	}
	var w, a float64
	for x := sh.head; x >= 0; {
		ed := &e.sEdges[x]
		w += ed.w
		a += ed.w * e.bnd[2*ed.li+1]
		x = ed.next
		e.shellReads++
	}
	if w > sh.deg {
		w = sh.deg // rounding: the weight into S is part of the degree
	}
	key := math.Inf(1) // no degree to divide by: R bounds nothing
	if den := (1-e.c)*sh.deg + e.c*w; den > 0 {
		key = a / den
	}
	sh.gen = e.evalGen
	b := shellBucket(key)
	if sh.prev != unfiled {
		if b == shellBucket(sh.key) {
			sh.key = key
			return
		}
		e.unlinkSlot(si) // reads the old key's bucket
	}
	sh.key = key
	e.linkSlot(si, b)
}

// addShellEdge appends the edge from visited node li, of weight w, to slot
// si's S-edges and marks the slot dirty.
func (e *phpEngine) addShellEdge(si, li int32, w float64) {
	x := int32(len(e.sEdges))
	e.sEdges = append(e.sEdges, shellEdge{li: li, next: -1, w: w})
	sh := &e.shell[si]
	if sh.tail >= 0 {
		e.sEdges[sh.tail].next = x
	} else {
		sh.head = x
	}
	sh.tail = x
	if sh.gen != shellDirty {
		sh.gen = shellDirty
		e.dirty = append(e.dirty, si)
	}
}

// killSlot takes the slot of a node being visited out of the shell.
func (e *phpEngine) killSlot(si int32) {
	if e.shell[si].prev != unfiled {
		e.unlinkSlot(si)
	}
	e.shell[si].node = -1
}

// shellBuckets is the number of key buckets. A key's bucket is its float
// exponent and top shellMantissaBits mantissa bits, clamped to the range:
// the bit pattern of a non-negative double orders like its value, so a
// higher bucket holds only larger keys.
const (
	shellBuckets      = 256
	shellMantissaBits = 2
	// shellTopKey is the smallest key the top bucket holds. A ratio is at
	// most 1/c (ub ≤ 1, W_u ≤ d_u), so only a decay below 1/8 files finite
	// keys there; clamped keys share a bucket, which costs time, not
	// exactness.
	shellTopKey = 8.0
	// shellDirty is the gen of a slot on the dirty list.
	shellDirty = math.MaxUint32
	// unfiled is the prev link of a slot in no bucket: one never evaluated,
	// or one unlinked to move or die.
	unfiled = -2
)

var shellBucketBase = int(math.Float64bits(shellTopKey)>>(52-shellMantissaBits)) - (shellBuckets - 1)

func shellBucket(key float64) int {
	b := int(math.Float64bits(key)>>(52-shellMantissaBits)) - shellBucketBase
	return min(max(b, 0), shellBuckets-1)
}

// topBucket returns the highest non-empty bucket, or −1.
func (e *phpEngine) topBucket() int {
	for w := len(e.bucketBits) - 1; w >= 0; w-- {
		if m := e.bucketBits[w]; m != 0 {
			return w*64 + 63 - bits.LeadingZeros64(m)
		}
	}
	return -1
}

// linkSlot pushes slot si onto bucket b.
func (e *phpEngine) linkSlot(si int32, b int) {
	sh := &e.shell[si]
	sh.prev, sh.next = -1, e.bucketHead[b]
	if sh.next >= 0 {
		e.shell[sh.next].prev = si
	}
	e.bucketHead[b] = si
	e.bucketBits[b/64] |= 1 << (b % 64)
}

// unlinkSlot removes slot si from the bucket of its key.
func (e *phpEngine) unlinkSlot(si int32) {
	sh := &e.shell[si]
	if sh.prev >= 0 {
		e.shell[sh.prev].next = sh.next
	} else {
		b := shellBucket(sh.key)
		e.bucketHead[b] = sh.next
		if sh.next < 0 {
			e.bucketBits[b/64] &^= 1 << (b % 64)
		}
	}
	if sh.next >= 0 {
		e.shell[sh.next].prev = sh.prev
	}
	sh.prev = unfiled
}

// shellSlot is one shell node as the shell bound sees it: the node (−1
// once visited), its degree (−1 until first read), the chain of its edges
// into S in sEdges (head to tail), its key and the evaluation that computed
// it (shellDirty while it waits on the dirty list), and its links in the
// key's bucket (prev is unfiled until its first exact evaluation).
type shellSlot struct {
	key, deg   float64
	node       graph.NodeID
	head, tail int32
	prev, next int32
	gen        uint32
}

// shellEdge is one edge from visited node li into a shell slot, of weight
// w; next is the slot's following edge, −1 at the tail.
type shellEdge struct {
	li, next int32
	w        float64
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
