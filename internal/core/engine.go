package core

import (
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
//     into a dummy node d of constant value rd (Theorem 5 / Section 4.3);
//   - optionally the self-loop tightening of Section 5.3.
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
// when updateDummy last set r_d, so no-local-optimum gives PHP(v) ≤ r_d.
// Any start at or above PHP is valid, because every coordinate relaxation
// of the monotone upper-bound map F keeps x ≥ PHP (PHP ≤ F(PHP) by Lemmas
// 3–4). The trivial start, 1, would set off a relaxation cascade through
// the neighborhood on every visit.
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
	tighten bool

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

	// Tightening state (Section 5.3), meaningful only for boundary nodes and
	// kept per edge at visit time: see visit.
	selfLoop   []float64 // diagonal entry c·Σ_{j∉S} p_ij·p_ji
	dummyTight []float64 // tightened dummy entry c·Σ_{j∉S} p_ij·(1−p_ji)

	degreeProbes int // Degree reads, repeats included

	// wSbar serves the RWR stopping rule's w(S̄) guard: the largest degree
	// among unvisited nodes, read off the graph's degree index through a
	// cursor that persists for the query.
	wSbar wsbarGuard

	// Footprint capture (Options.CaptureFootprint): probed collects the
	// unvisited nodes whose Degree was read, once per read (probedNodes
	// makes it a set), and lastGuard records the final w(S̄) ceiling an RWR
	// search certified against. Both feed surgical cache invalidation.
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
	e.c, e.tau, e.maxIter, e.tighten = p.C, p.Tau, p.MaxIter, opt.Tighten

	e.resetCommon(g, q)

	e.bnd = e.bnd[:0]
	e.queueLB = e.queueLB[:0]
	e.queueUB = e.queueUB[:0]
	e.inQLB = e.inQLB[:0]
	e.inQUB = e.inQUB[:0]
	e.pendLB = e.pendLB[:0]
	e.pendUB = e.pendUB[:0]
	e.selfLoop = e.selfLoop[:0]
	e.dummyTight = e.dummyTight[:0]
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

// visit pulls node v into S: the substrate maintains the visited-set and
// frontier bookkeeping and wires the transition entries in both directions,
// then this keeps the Section 5.3 tightening entries and seeds the solver
// worklists. v's upper bound starts at r_d (see phpEngine). Precondition: v
// not visited.
//
// With tightening on, v's own entries
//
//	selfLoop_v   = c·Σ_{j∈N_v∩S̄} p_vj·p_jv
//	dummyTight_v = c·Σ_{j∈N_v∩S̄} p_vj·(1−p_jv)
//
// are summed once from its unvisited neighbors, with one Degree read per
// edge, and each visited neighbor u drops the edge (u, v) from its sums.
// Both carry one factor of c inside the entry (the star-to-mesh edge stands
// for a two-step walk); the solver applies the second factor.
func (e *phpEngine) visit(v graph.NodeID) {
	li := e.visitCommon(v)

	e.bnd = append(e.bnd, 0, e.rd)
	e.selfLoop = append(e.selfLoop, 0)
	e.dummyTight = append(e.dummyTight, 0)
	e.inQLB = append(e.inQLB, false)
	e.inQUB = append(e.inQUB, false)
	e.pendLB = append(e.pendLB, 0)
	e.pendUB = append(e.pendUB, 0)
	e.enqueue(li)

	d := e.deg[li]
	if e.tighten && v != e.q && d > 0 {
		var self, dum float64
		for k, lu := range e.visitL {
			if lu >= 0 {
				continue
			}
			u := e.adjN[li][k]
			du := e.g.Degree(u)
			e.degreeProbes++
			if e.capProbes {
				e.probed = append(e.probed, u)
			}
			var puv float64
			if du > 0 {
				puv = e.adjW[li][k] / du
			}
			pvu := e.adjW[li][k] / d
			self += pvu * puv
			dum += pvu * (1 - puv)
		}
		e.selfLoop[li] = e.c * self
		e.dummyTight[li] = e.c * dum
	}

	// Every already-visited neighbor u gained an entry toward v, so it joins
	// the relaxation worklists; with tightening on, v left S̄ for u, so
	// (u, v) is retracted from u's sums, clamped at 0 against cancellation.
	// The weight is read per adjacency entry: a parallel edge retracts once
	// per edge.
	for k, lu := range e.visitL {
		if lu < 0 {
			continue
		}
		if e.tighten && e.nodes[lu] != e.q {
			puv := e.adjW[li][k] / e.deg[lu]
			pvu := e.adjW[li][k] / d
			e.selfLoop[lu] = max(0, e.selfLoop[lu]-e.c*(puv*pvu))
			e.dummyTight[lu] = max(0, e.dummyTight[lu]-e.c*(puv*(1-pvu)))
		}
		e.enqueue(lu)
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
// untightened upper bound redirects to the dummy node.
func (e *phpEngine) outMass(i int32) float64 { return e.outMassOf(i, 0) }

// probedNodes returns the captured Degree probes as a sorted set, the form
// ProbedNodes documents.
func (e *phpEngine) probedNodes() []graph.NodeID {
	slices.Sort(e.probed)
	e.probed = slices.Compact(e.probed)
	return append([]graph.NodeID(nil), e.probed...)
}

// dummyEntry returns local node i's transition entry into the dummy node for
// the upper-bound system.
func (e *phpEngine) dummyEntry(i int32) float64 {
	if i == 0 || e.outCnt[i] == 0 { // local index 0 is the query
		return 0
	}
	if e.tighten {
		return e.dummyTight[i]
	}
	return e.outMass(i)
}

// selfEntry returns local node i's diagonal entry (0 unless tightening).
func (e *phpEngine) selfEntry(i int32) float64 {
	if !e.tighten || i == 0 || e.outCnt[i] == 0 {
		return 0
	}
	return e.selfLoop[i]
}

// solve re-solves both bound systems to tolerance, warm-started from
// the previous bounds and the new nodes' start values (0 below, r_d above).
// Validity under truncation rests on the true PHP vector, not on the start
// being a sub- or super-solution of the grown system: both maps are
// monotone, G(PHP) ≤ PHP ≤ F(PHP) (Theorem 3, Lemmas 3–4), so a coordinate
// relaxation keeps lb ≤ PHP below and ub ≥ PHP above from any start on the
// right side. A new node's r_d start is not a super-solution: its own row
// may relax above r_d when it borders nodes with larger upper bounds.
//
// The solver is a residual-driven Gauss–Seidel relaxation over worklists
// rather than full Jacobi sweeps: expansion enqueues exactly the rows whose
// equations changed, each relaxation applies the closed-form update
//
//	r_i ← (c·(Σ_j T_ij·r_j + dummy_i·r_d) + e_i) / (1 − c·self_i)
//
// and charges the change to i's local neighbors, which re-enqueue once their
// accumulated input drift exceeds θ = τ/16. It reaches the same fixpoint as
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
				if self := e.selfEntry(i); self > 0 {
					v /= 1 - e.c*self
				}
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
				if self := e.selfEntry(i); self > 0 {
					v /= 1 - e.c*self
				}
				d := abs(v - e.bnd[2*i+1])
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

// updateDummy lowers rd to max_{i∈δS} ub_i (Algorithm 5 line 7). It must run
// BEFORE the expansion that moves from S^{t-1} to S^t, because the bound
// r_d ≥ r_j (∀ j unvisited) is proved against the previous boundary.
//
// A decrease smaller than τ is skipped: a stale, larger r_d keeps every
// upper bound valid (it only loosens them), and skipping avoids re-relaxing
// the whole boundary for negligible gain. Both scans walk the incremental
// boundary list — O(|δS|), not O(|S|).
func (e *phpEngine) updateDummy() {
	maxUB := 0.0
	found := false
	for _, i := range e.bList {
		if e.outCnt[i] > 0 {
			found = true
			if ub := e.bnd[2*i+1]; ub > maxUB {
				maxUB = ub
			}
		}
	}
	if found && e.rd-maxUB <= e.tau/16 {
		return
	}
	if !found {
		maxUB = 0 // component exhausted: no mass flows to the dummy anyway
	}
	if maxUB >= e.rd {
		return
	}
	e.rd = maxUB
	// Every boundary equation references r_d; re-relax them.
	for _, i := range e.bList {
		if e.outCnt[i] > 0 && !e.inQUB[i] {
			e.inQUB[i] = true
			e.queueUB = append(e.queueUB, i)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
