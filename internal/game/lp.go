package game

import (
	"fmt"
	"math"

	"auditgame/internal/lp"
)

// LPResult is the solution of the fixed-threshold restricted game LP
// (Eq. 5 with the ordering set restricted to Q).
type LPResult struct {
	// Objective is the auditor's minimized expected loss Σ_e p_e·u_e.
	Objective float64
	// Po[qi] is the probability assigned to ordering Q[qi].
	Po []float64
	// Ue[e] is the equilibrium best-response utility of entity e
	// (entities in the same equivalence class share a value).
	Ue []float64
	// RowDuals[c][s] is the shadow price of the best-response constraint
	// for entity class c's s-th attack signature; SimplexDual is the
	// shadow price of Σ p_o = 1. Together they price candidate columns
	// in column generation: rc(o) = −(Σ_{c,s} RowDuals[c][s]·Ua(o,b,c,s)
	// + SimplexDual).
	RowDuals    [][]float64
	SimplexDual float64
	// Basis is the optimal basis in game-logical coordinates, reusable
	// as the warm start of a later SolveFixedWarm over a grown ordering
	// pool or a refit instance with the same class structure.
	Basis *MasterBasis
	// Iterations counts simplex pivots.
	Iterations int
}

// SolveFixed solves the zero-sum LP of Eq. 5 with thresholds b fixed and
// the auditor's orderings restricted to the set Q:
//
//	min  Σ_e p_e·u_e
//	s.t. Σ_o p_o·Ua(o,b,⟨e,v⟩) − u_e ≤ 0     ∀e, ∀ distinct v-signature
//	     u_e ≥ 0                              (when AllowNoAttack)
//	     Σ_o p_o = 1,  p_o ≥ 0,  u_e free
//
// When the simplex stops short of an optimum, the error names its
// status, the phase it stopped in, its pivots and the LP's size, and
// the result is returned too, holding only Iterations, so a caller can
// account for the failed solve's pivots. The same holds for
// SolveFixedWarm and SolveFixedPals.
func (in *Instance) SolveFixed(Q []Ordering, b Thresholds) (*LPResult, error) {
	return in.solveFixed(Q, b, nil)
}

// SolveFixedWarm is SolveFixed with an advisory warm-start basis from a
// previous solve — typically LPResult.Basis of the last pricing round
// (the pool grew by one column) or of the pre-refit master (same class
// structure, perturbed count model). A nil, stale, or structurally
// incompatible basis degrades to the cold solve; it never changes the
// result, only the pivot count.
func (in *Instance) SolveFixedWarm(Q []Ordering, b Thresholds, warm *MasterBasis) (*LPResult, error) {
	return in.solveFixed(Q, b, warm)
}

func (in *Instance) solveFixed(Q []Ordering, b Thresholds, warm *MasterBasis) (*LPResult, error) {
	if len(Q) == 0 {
		return nil, fmt.Errorf("game: SolveFixed needs at least one ordering")
	}
	if len(b) != len(in.G.Types) {
		return nil, fmt.Errorf("game: thresholds have %d entries, want |T| = %d", len(b), len(in.G.Types))
	}
	for qi, o := range Q {
		if !o.ValidPermutation(len(in.G.Types)) {
			return nil, fmt.Errorf("game: Q[%d] = %v is not a permutation of the %d types", qi, o, len(in.G.Types))
		}
	}

	// Pal for all orderings in one batched pass, then Ua rows per
	// (ordering, entity signature).
	return in.solveFixedFromPals(Q, in.PalBatch(Q, b), warm)
}

// SolveFixedPals solves the restricted LP with the detection
// probabilities already in hand — one pal vector of |T| entries per
// ordering, as returned by PalGrid.Pals or PalBatchNoCache. Brute force
// needs each pal table once and comes through here, so its pal vectors
// never enter the cache; it also skips the per-call permutation
// validation of SolveFixed (the caller enumerated the orderings).
func (in *Instance) SolveFixedPals(Q []Ordering, pals [][]float64) (*LPResult, error) {
	if len(Q) == 0 {
		return nil, fmt.Errorf("game: SolveFixedPals needs at least one ordering")
	}
	if len(pals) != len(Q) {
		return nil, fmt.Errorf("game: SolveFixedPals got %d pal vectors for %d orderings", len(pals), len(Q))
	}
	for qi, pal := range pals {
		if len(pal) != in.nT {
			return nil, fmt.Errorf("game: SolveFixedPals pal vector %d has %d entries, want |T| = %d", qi, len(pal), in.nT)
		}
	}
	return in.solveFixedFromPals(Q, pals, nil)
}

// masterLayout places the restricted master in the standard form the
// simplex runs on (min cᵀx, Ax = b, x ≥ 0). Columns: p_o for each
// pooled ordering, then u_c⁺ and u_c⁻ for each class c (u_c is free),
// then one slack per inequality row in row order. Rows: each class's
// best-response rows in signature order, then its refrain row when the
// game allows no attack; the simplex row Σ p_o = 1 comes last and is
// the only equality, so inequality row r's slack is column slack+r.
type masterLayout struct {
	nQ    int // ordering columns [0, nQ)
	ue    int // class c's u_c⁺ at ue+2c, u_c⁻ at ue+2c+1
	slack int // first slack column
	m, n  int // rows, columns
}

func (in *Instance) masterLayout(nQ int) masterLayout {
	m := 1
	for _, cl := range in.classes {
		m += len(cl.sigs)
		if in.G.AllowNoAttack {
			m++
		}
	}
	l := masterLayout{nQ: nQ, ue: nQ, slack: nQ + 2*len(in.classes), m: m}
	l.n = l.slack + m - 1
	return l
}

// writeMaster writes the restricted master into ws under layout l, the
// objective scaled by 1/weightScale.
func (in *Instance) writeMaster(ws *lp.Workspace, l masterLayout, pals [][]float64, weightScale float64) {
	ws.Reset(l.m, l.n)
	r := 0
	for ci, cl := range in.classes {
		up, un := l.ue+2*ci, l.ue+2*ci+1
		cost := cl.weight / weightScale
		ws.C[up], ws.C[un] = cost, -cost
		// Best response: Σ_o p_o·Ua(o,c,s) − u_c⁺ + u_c⁻ + slack = 0,
		// starting on its slack.
		for s := range cl.sigs {
			row := ws.Row(r)
			for qi, pal := range pals {
				if v := cl.sigs[s].ua(pal); v != 0 {
					row[qi] = v
				}
			}
			row[up], row[un], row[l.slack+r] = -1, 1, 1
			ws.Crash[r] = l.slack + r
			r++
		}
		// Refrain: u_c⁺ − u_c⁻ − surplus = 0, starting on its artificial.
		if in.G.AllowNoAttack {
			row := ws.Row(r)
			row[up], row[un], row[l.slack+r] = 1, -1, -1
			r++
		}
	}
	row := ws.Row(r)
	for qi := 0; qi < l.nQ; qi++ {
		row[qi] = 1
	}
	ws.B[r] = 1
}

func (in *Instance) solveFixedFromPals(Q []Ordering, pals [][]float64, warm *MasterBasis) (*LPResult, error) {
	// Normalize the objective weights to sum 1 for the solve. The class
	// weights grow with the entity count (Σ p_e over thousands of
	// entities), and an objective orders of magnitude above the O(1)
	// constraint scale drowns the simplex's absolute tolerances in
	// round-off on large games. The LP is solved in the normalized scale
	// and the objective and duals are scaled back before returning, so
	// callers see the true loss.
	var weightScale float64
	for _, cl := range in.classes {
		weightScale += cl.weight
	}
	if weightScale <= 0 {
		weightScale = 1
	}

	l := in.masterLayout(len(Q))
	ws, _ := in.masters.Get().(*lp.Workspace)
	if ws == nil {
		ws = new(lp.Workspace)
	}
	in.writeMaster(ws, l, pals, weightScale)
	sol := ws.Solve(lp.Options{Warm: warm.columns(Q, l)})
	if sol.Status != lp.Optimal {
		in.masters.Put(ws)
		return &LPResult{Iterations: sol.Iterations}, fmt.Errorf(
			"game: restricted LP not optimal: %v in phase %d after %d pivots (m = %d rows, n = %d columns)",
			sol.Status, sol.Phase, sol.Iterations, l.m, l.n)
	}

	// Copy out of the pooled workspace. A basic value can be −0 after a
	// warm install pivots on a negative entry; the + 0 reports it as +0.
	res := &LPResult{
		Objective:   sol.Objective * weightScale,
		Po:          make([]float64, len(Q)),
		Ue:          make([]float64, len(in.G.Entities)),
		RowDuals:    make([][]float64, len(in.classes)),
		SimplexDual: sol.Y[l.m-1] * weightScale,
		Basis:       newMasterBasis(sol.Basis, Q, l),
		Iterations:  sol.Iterations,
	}
	for qi := range Q {
		v := sol.X[qi] + 0
		if v < 0 {
			v = 0
		}
		res.Po[qi] = v
	}
	for e := range in.G.Entities {
		c := in.entityClass[e]
		res.Ue[e] = sol.X[l.ue+2*c] - sol.X[l.ue+2*c+1] + 0
	}
	r := 0
	for ci, cl := range in.classes {
		res.RowDuals[ci] = make([]float64, len(cl.sigs))
		for s := range cl.sigs {
			res.RowDuals[ci][s] = sol.Y[r] * weightScale
			r++
		}
		if in.G.AllowNoAttack {
			r++
		}
	}
	in.masters.Put(ws)
	return res, nil
}

// ReducedCosts prices candidate columns against the duals of a
// previously solved restricted LP, one reduced cost per pal vector.
// Negative means the column improves the LP. Partial orderings price
// too (types absent are never audited). The caller picks where the pal
// vectors come from: PalBatch for columns it will price again,
// PalBatchNoCache for throwaway candidates.
func (in *Instance) ReducedCosts(res *LPResult, pals [][]float64) []float64 {
	out := make([]float64, len(pals))
	for i, pal := range pals {
		out[i] = in.reducedCostFromPal(res, pal)
	}
	return out
}

func (in *Instance) reducedCostFromPal(res *LPResult, pal []float64) float64 {
	var priced float64
	for ci := range in.classes {
		sigs, duals := in.classes[ci].sigs, res.RowDuals[ci]
		for s := range sigs {
			if d := duals[s]; d != 0 {
				priced += d * sigs[s].ua(pal)
			}
		}
	}
	return -(priced + res.SimplexDual)
}

// DualTypeWeights folds the duals down to one weight per alert type:
// W[t] = Σ_{c,s} RowDuals[c][s]·delta_{c,s}·probs_{c,s}[t]. Since ua is
// affine in pal, appending type t to a prefix moves the priced sum by
// exactly W[t]·Δpal_t — the algebra the pruning bounds run on.
func (in *Instance) DualTypeWeights(res *LPResult) []float64 {
	W := make([]float64, in.nT)
	for ci := range in.classes {
		sigs, duals := in.classes[ci].sigs, res.RowDuals[ci]
		for s := range sigs {
			d := duals[s]
			if d == 0 {
				continue
			}
			dd := d * sigs[s].delta
			for _, tp := range sigs[s].nz {
				W[tp.t] += dd * tp.p
			}
		}
	}
	return W
}

// pruneMarginCoeff scales the safety margins of the reduced-cost bounds
// below. The bounds compare the composed form rcPrefix − W[t]·Δ against
// reduced costs evaluated exactly through reducedCostFromPal; the two
// agree algebraically but not bitwise, so every bound is slackened by
// ~1e-12 of its operand scale — roughly a thousand times the worst
// reassociation error at these magnitudes, and still far below any
// meaningful Eps. The margins make pruning advisory-safe: a pruned
// candidate's exact reduced cost is strictly above the surviving
// minimum, so pruning can never change which column the oracle emits.
const pruneMarginCoeff = 1e-12

// ExtendOutcome reports one incremental greedy-oracle step.
type ExtendOutcome struct {
	// BestType/BestRC/BestDelta describe the chosen extension: the
	// candidate minimizing the exact reduced cost (ties to the lowest
	// type index, matching the batched oracle's argmin).
	BestType  int
	BestRC    float64
	BestDelta float64
	// Evaluated counts candidates whose delta was priced: read from the
	// short-prefix delta memo at O(1), or evaluated from the prefix
	// checkpoint at O(rows). Pruned counts candidates discarded on
	// bounds alone, without touching the realization matrix.
	Evaluated int
	Pruned    int
}

// ExtendReducedCosts prices the one-type extensions prefix+t of the
// pricer's checkpointed prefix and selects the minimum-reduced-cost
// candidate. ub[t] must be a monotone upper bound on Δpal_t (math.Inf(1)
// when unknown; the budget fold only ever shrinks a candidate's delta as
// the prefix grows, so any previously evaluated delta qualifies); it is
// tightened in place with each candidate actually evaluated.
//
// Pruning runs in two rounds: the candidate with the lowest reduced-cost
// lower bound is evaluated exactly to seed an incumbent, then every
// remaining candidate whose lower bound already exceeds the incumbent is
// discarded without touching the realization matrix. Survivors get their
// exact reduced cost through the same reducedCostFromPal path the
// batched oracle uses, on a composed pal vector that is bitwise-
// identical to the full walk's — and the margins guarantee a pruned
// candidate's exact reduced cost is strictly above the final minimum, so
// the selected column, and every tie-break, matches the non-incremental
// oracle bit for bit.
func (in *Instance) ExtendReducedCosts(res *LPResult, pp *PrefixPricer, cands []int, W, ub []float64) ExtendOutcome {
	if len(cands) == 0 {
		panic("game: ExtendReducedCosts needs at least one candidate")
	}
	rcPrefix := in.reducedCostFromPal(res, pp.pal)

	// Margin-lowered lower bounds: rc(prefix+t) = rcPrefix − W[t]·Δ_t in
	// exact arithmetic with Δ_t ∈ [0, ub[t]], so rc is at least
	// rcPrefix − max(0, W[t])·ub[t] minus the reassociation slack.
	if len(cands) > cap(pp.lo) { // only a candidate listed twice gets here
		pp.lo, pp.rest = make([]float64, len(cands)), make([]int, 0, len(cands))
	}
	lo := pp.lo[:len(cands)]
	seedJ := 0
	for j, t := range cands {
		wt := W[t]
		loT := rcPrefix
		var spread float64
		if wt > 0 {
			spread = wt * ub[t]
			loT = rcPrefix - spread
		}
		lo[j] = loT - pruneMarginCoeff*(1+math.Abs(rcPrefix)+spread)
		if lo[j] < lo[seedJ] {
			seedJ = j
		}
	}

	out := ExtendOutcome{BestType: -1, BestRC: math.Inf(1)}
	// better applies the batched oracle's argmin semantics — minimum
	// reduced cost, exact ties to the lowest type index — independent of
	// evaluation order (the seed may have a higher index than a tie).
	better := func(rc float64, t int) bool {
		return rc < out.BestRC || (rc == out.BestRC && t < out.BestType)
	}
	eval := func(ts []int) {
		deltas := pp.ExtendDeltas(ts)
		out.Evaluated += len(ts)
		for j, t := range ts {
			ub[t] = deltas[j]
			pp.pal[t] = deltas[j]
			rc := in.reducedCostFromPal(res, pp.pal)
			pp.pal[t] = 0
			if better(rc, t) {
				out.BestRC, out.BestType, out.BestDelta = rc, t, deltas[j]
			}
		}
	}

	eval(cands[seedJ : seedJ+1])
	rest := pp.rest[:0]
	for j, t := range cands {
		if j == seedJ {
			continue
		}
		if lo[j] > out.BestRC {
			// rc(prefix+t) is strictly above the incumbent (the margin
			// inside lo covers the float slack), so t can be neither the
			// minimum nor an exact tie.
			out.Pruned++
			continue
		}
		rest = append(rest, t)
	}
	if len(rest) > 0 {
		eval(rest)
	}
	return out
}

// CompletionLowerBound returns a sound lower bound on the reduced cost
// of ANY full completion of the pricer's prefix: each unused type t
// appears at exactly one future position, where its pal delta is at most
// ub[t] (budget consumption only grows along the walk), so the priced
// sum can improve by at most Σ max(0, W[t])·ub[t]. Once this bound
// clears −eps the oracle can stop: no completion — the greedy one
// included — prices negatively enough to enter the master.
func (in *Instance) CompletionLowerBound(res *LPResult, pp *PrefixPricer, W, ub []float64) float64 {
	rcPrefix := in.reducedCostFromPal(res, pp.pal)
	var sum float64
	for t := 0; t < in.nT; t++ {
		if pp.inPrefix[t] {
			continue
		}
		if wt := W[t]; wt > 0 {
			sum += wt * ub[t]
		}
	}
	m := pruneMarginCoeff * (1 + math.Abs(rcPrefix) + sum) * float64(in.nT+1)
	return rcPrefix - sum - m
}
