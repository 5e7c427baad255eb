package lp

import (
	"math"

	"auditgame/internal/fault"
)

// load initialises the tableau to [A | I | 0] on the crash basis.
//
// A row whose crash column carries a +1 coefficient is feasible with
// that column basic (b ≥ 0), so only the remaining rows start on
// artificials. The basis matrix is still the identity, and the
// artificial columns are installed for every row regardless — the dual
// extraction reads them. Starting from crash columns instead of a full
// artificial basis keeps phase 1 to the handful of rows that genuinely
// need repair, which both speeds it up and avoids the long degenerate
// pivot chains on rhs-0 rows that let tableau round-off accumulate.
func (w *Workspace) load() {
	m, n := w.m, w.n
	stride := n + m + 1
	clear(w.inb)
	clear(w.blocked)
	for i := 0; i < m; i++ {
		row := w.tab[i*stride : (i+1)*stride]
		copy(row[:n], w.A[i*n:(i+1)*n])
		clear(row[n:])
		row[n+i] = 1 // artificial; x₀ stays 0
		if j := w.Crash[i]; j >= 0 {
			w.basis[i] = j
			w.inb[j] = true
		} else {
			w.basis[i] = n + i
			w.inb[n+i] = true
		}
	}
	copy(w.rhs, w.B)
}

// row returns tableau row i.
func (w *Workspace) row(i int) []float64 {
	stride := w.n + w.m + 1
	return w.tab[i*stride : (i+1)*stride]
}

// at returns tableau entry (i, j).
func (w *Workspace) at(i, j int) float64 { return w.tab[i*(w.n+w.m+1)+j] }

// Solve runs the two-phase simplex method on the problem written since
// the last Reset.
func (w *Workspace) Solve(o Options) Result {
	m, n := w.m, w.n
	if o.MaxIter == 0 {
		o.MaxIter = 200 * (m + n + 10)
	}
	var res Result
	w.load()

	clear(w.phase1[:n])
	for j := n; j <= n+m; j++ {
		w.phase1[j] = 1
	}

	// Warm start: crash-install the supplied basis by direct pivots
	// (Gaussian elimination with best-magnitude row choice), then, if
	// the new data left some basic values negative, pivot x₀ in to make
	// them all non-negative. Every step is a legal basis change on a
	// consistent tableau, so the phases below run exactly as they would
	// from the crash basis — just from a vertex near the old optimum.
	if len(o.Warm) > 0 {
		w.setObjective(w.phase1) // pivots maintain cbar/z; install under phase-1 costs
		res.Iterations += w.warmInstall(o.Warm) + w.auxiliaryPivot()
	}

	// Phase 1: minimize the sum of artificials and x₀.
	res.Phase = 1
	w.setObjective(w.phase1)
	st, it := w.iterate(o, true)
	res.Iterations += it
	if st == IterationLimit {
		res.Status = IterationLimit
		return res
	}
	// Test feasibility on the recomputed artificial mass, not the
	// incrementally updated z: after thousands of (mostly degenerate)
	// pivots on large column-generation masters, z carries accumulated
	// floating-point drift that can exceed the tolerance on a feasible
	// problem. The basic values themselves are the authoritative state.
	if w.artificialMass() > math.Sqrt(eps) {
		res.Status = Infeasible
		return res
	}
	// Drive any artificials that linger in the basis at zero level out,
	// or drop their rows if the row is redundant.
	res.Iterations += w.purgeArtificials()

	// Phase 2: minimize the true objective.
	res.Phase = 2
	copy(w.phase2[:n], w.C)
	clear(w.phase2[n:])
	w.setObjective(w.phase2)
	st, it = w.iterate(o, false)
	res.Iterations += it
	if st != Optimal {
		res.Status = st
		return res
	}

	res.Status = Optimal
	clear(w.x)
	for i, bj := range w.basis {
		if bj < n {
			w.x[bj] = w.rhs[i]
		}
	}
	// Report the objective recomputed from the basic values, not the
	// incrementally updated z — the same drift the phase-1 feasibility
	// test guards against (artificial phase-2 costs are zero, so basic
	// structural columns are the only contributors).
	for i, bj := range w.basis {
		if bj < n {
			res.Objective += w.phase2[bj] * w.rhs[i]
		}
	}
	// Duals from artificial reduced costs: c̄_{n+i} = c_{n+i} − y_i and
	// the phase-2 cost of artificials is 0, so y_i = −c̄_{n+i}.
	for i := 0; i < m; i++ {
		w.y[i] = -w.cbar[n+i]
	}
	res.X, res.Y, res.Basis = w.x, w.y, w.basis
	return res
}

// warmInstallTol is the smallest tableau entry accepted as an
// installation pivot. Looser than pivotTol would risk amplifying the
// tableau by the reciprocal of a noise-level entry across the m install
// pivots; matching pivotTol keeps the warm crash no worse conditioned
// than a regular pivot sequence.
const warmInstallTol = pivotTol

// warmInstall pivots the supplied columns into the basis by direct
// Gaussian-elimination steps: each column enters on the unclaimed row
// where it has the largest-magnitude entry (partial pivoting), with no
// ratio test — primal feasibility is deliberately ignored here and
// restored by auxiliaryPivot and phase 1 afterwards. Rows already
// holding a target column are claimed up front so targets never evict
// each other.
// Columns that do not exist, are already basic, or have no entry
// above warmInstallTol on any unclaimed row (a singular warm basis)
// are skipped. Returns the pivot count.
func (w *Workspace) warmInstall(desired []int) int {
	clear(w.claimed)
	clear(w.want)
	for _, j := range desired {
		if j >= 0 && j < w.n {
			w.want[j] = true
		}
	}
	for i, bj := range w.basis {
		if bj < w.n && w.want[bj] {
			w.claimed[i] = true
		}
	}
	pivots := 0
	for _, j := range desired {
		if j < 0 || j >= w.n || w.inb[j] {
			continue
		}
		best, row := warmInstallTol, -1
		for i := 0; i < w.m; i++ {
			if w.claimed[i] {
				continue
			}
			if v := math.Abs(w.at(i, j)); v > best {
				best, row = v, i
			}
		}
		if row < 0 {
			continue
		}
		w.pivot(row, j)
		w.claimed[row] = true
		pivots++
	}
	return pivots
}

// auxiliaryPivot makes the installed basis primal feasible in one
// pivot, the one-auxiliary-variable start (Chvátal, Linear Programming,
// 1983, ch. 3). Under perturbed problem data some basic values land
// below zero; x₀ gets −1 on exactly those rows and enters on the most
// negative one, which leaves every basic value non-negative. Phase 1
// prices x₀ at cost 1 like an artificial and so drives it back to zero
// from the installed basis. Returns the pivot count, 0 when the basis
// is feasible and x₀ stays a zero column.
func (w *Workspace) auxiliaryPivot() int {
	row, worst := -1, -eps
	for i, v := range w.rhs {
		if v < worst {
			worst, row = v, i
		}
	}
	if row < 0 {
		return 0
	}
	x0 := w.n + w.m
	for i, v := range w.rhs {
		if v < -eps {
			w.row(i)[x0] = -1
		}
	}
	w.pivot(row, x0)
	return 1
}

// artificialMass sums the current values of basic artificial variables
// and x₀ — the exact phase-1 objective at the current vertex.
func (w *Workspace) artificialMass() float64 {
	var sum float64
	for i, bj := range w.basis {
		if bj >= w.n {
			sum += w.rhs[i]
		}
	}
	return sum
}

// setObjective installs phase costs c and recomputes reduced costs and z
// from the current basis by pricing: c̄ = c − c_Bᵀ·(tableau rows), where the
// tableau body already equals B⁻¹A.
func (w *Workspace) setObjective(c []float64) {
	copy(w.cbar, c)
	w.z = 0
	for i, bj := range w.basis {
		cb := c[bj]
		if cb == 0 {
			continue
		}
		w.z += cb * w.rhs[i]
		for j, a := range w.row(i) {
			w.cbar[j] -= cb * a
		}
	}
	// Basic columns have exactly zero reduced cost by construction; snap
	// them to kill accumulated noise.
	for _, bj := range w.basis {
		w.cbar[bj] = 0
	}
}

// pivotTol is the smallest tableau entry accepted as a pivot element.
// Pivoting divides the row by the pivot, so an entry near the noise
// floor amplifies the whole tableau by its reciprocal; a few such
// pivots compound into overflow-scale garbage on large degenerate
// masters. Rows whose entry in the entering column is below this
// threshold are ineligible to leave — excluding them costs at most
// O(pivotTol) infeasibility, because the same tiny entry is the
// coefficient by which their basic value changes.
const pivotTol = 1e-7

// iterate runs primal simplex pivots until optimality, unboundedness, or
// the iteration cap. phase1 bars nothing; in phase 2 the artificial
// columns and x₀ may not enter. It starts with Dantzig pricing and falls back to
// Bland's rule after stalling (no objective improvement) for a window
// of pivots, and chooseLeaving breaks ratio ties lexicographically.
// Both are meant to stop cycling on degenerate masters, but neither is
// a proof while chooseLeaving skips rows below pivotTol and columns are
// blocked here: MaxIter is the backstop (see the package comment).
func (w *Workspace) iterate(o Options, phase1 bool) (Status, int) {
	bland := o.Bland
	stall := 0
	const stallWindow = 64
	lastZ := w.z

	for iter := 0; iter < o.MaxIter; iter++ {
		if err := fault.Inject(fault.LPPivot); err != nil {
			// Pivot loops have no error return; panic-only point, caught
			// by the solver entry containment guards.
			panic(err)
		}
		enter := w.chooseEntering(bland, phase1)
		if enter < 0 {
			return Optimal, iter
		}
		leave := w.chooseLeaving(enter)
		if leave < 0 {
			// No eligible pivot element. If the column is non-positive
			// the problem is genuinely unbounded along it; if it has
			// positive entries below pivotTol, the column is numerically
			// unusable at this basis — block it from pricing and move
			// on rather than divide by noise.
			if w.maxColumnEntry(enter) <= 0 {
				return Unbounded, iter
			}
			w.blocked[enter] = true
			continue
		}
		w.pivot(leave, enter)
		clear(w.blocked) // new basis, new numerics

		if w.z < lastZ-eps {
			lastZ = w.z
			stall = 0
			bland = o.Bland
		} else {
			stall++
			if stall > stallWindow {
				bland = true
			}
		}
	}
	return IterationLimit, o.MaxIter
}

// maxColumnEntry returns the largest coefficient of column j over all
// rows.
func (w *Workspace) maxColumnEntry(j int) float64 {
	best := math.Inf(-1)
	for i := 0; i < w.m; i++ {
		if a := w.at(i, j); a > best {
			best = a
		}
	}
	return best
}

// chooseEntering returns the entering column, or -1 at optimality.
func (w *Workspace) chooseEntering(bland, phase1 bool) int {
	limit := w.n + w.m + 1
	if !phase1 {
		limit = w.n // artificials and x₀ may not re-enter in phase 2
	}
	if bland {
		for j := 0; j < limit; j++ {
			if !w.inb[j] && !w.blocked[j] && w.cbar[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, at := -eps, -1
	for j := 0; j < limit; j++ {
		if !w.inb[j] && !w.blocked[j] && w.cbar[j] < best {
			best, at = w.cbar[j], j
		}
	}
	return at
}

// chooseLeaving performs the minimum ratio test on column enter,
// resolving ties lexicographically: among the min-ratio rows it picks
// the one whose B⁻¹ row scaled by the pivot element is lexicographically
// smallest. With every row eligible, that makes each pivot strictly
// lex-decrease the objective row and rules out cycling for any entering
// rule; rows skipped below pivotTol break that argument (see iterate).
// The basis starts at the identity, so all rows begin lex-positive as
// the rule requires. Plain smallest-index tie-breaking is not enough
// here: large degenerate column-generation masters (hundreds of rhs-0
// best-response rows) cycle through zero-ratio pivots indefinitely
// under it. Returns the pivot row, or -1 if no row is eligible.
func (w *Workspace) chooseLeaving(enter int) int {
	bestRatio := math.Inf(1)
	w.ties = w.ties[:0]
	for i := 0; i < w.m; i++ {
		aie := w.at(i, enter)
		if aie <= pivotTol {
			continue
		}
		ratio := w.rhs[i] / aie
		switch {
		case ratio < bestRatio-eps:
			bestRatio = ratio
			w.ties = append(w.ties[:0], i)
		case ratio < bestRatio+eps:
			w.ties = append(w.ties, i)
			if ratio < bestRatio {
				bestRatio = ratio
			}
		}
	}
	if len(w.ties) == 0 {
		return -1
	}
	row := w.ties[0]
	for _, i := range w.ties[1:] {
		if w.lexLess(i, row, enter) {
			row = i
		}
	}
	return row
}

// lexLess reports whether row i strictly precedes row r in the
// lexicographic order used by the ratio test: comparing the rows of the
// artificial block (which carries B⁻¹) scaled by their entries in the
// entering column. Comparisons are exact — the order only needs to be
// total and consistent, and noise-level differences still break the
// degenerate ties that cause cycling.
func (w *Workspace) lexLess(i, r, enter int) bool {
	ri, rr := w.row(i), w.row(r)
	si := 1 / ri[enter]
	sr := 1 / rr[enter]
	for j := w.n; j < w.n+w.m; j++ {
		vi := ri[j] * si
		vr := rr[j] * sr
		if vi != vr {
			return vi < vr
		}
	}
	return false
}

// pivot makes column enter basic in row r.
//
// The pivot row is scaled once, and its nonzeros (column enter aside)
// are gathered into nzCol/nzVal on the way; every other row with a
// nonzero entry in the entering column, and the reduced-cost row, is
// then updated at those columns only. A master's pivot row is mostly
// zeros, so this does (touched rows) × (pivot-row nonzeros) work rather
// than (touched rows) × (n+m). Each nonzero entry sees exactly the
// arithmetic of a full-row update. A zero entry is left as it is,
// where a full-row x − f·(±0) could turn a −0 into +0. No pivot choice
// or result can see that: the pivot rules and the lexicographic test
// compare entries by value, and the duals come from the artificials'
// reduced costs, which start at +0 or 1 and so are never −0.
func (w *Workspace) pivot(r, enter int) {
	rowR := w.row(r)
	inv := 1 / rowR[enter]
	nz := 0
	for j, a := range rowR {
		if a != 0 && j != enter {
			a *= inv
			rowR[j] = a
			w.nzCol[nz], w.nzVal[nz] = j, a
			nz++
		}
	}
	cols, vals := w.nzCol[:nz], w.nzVal[:nz]
	w.rhs[r] *= inv
	rowR[enter] = 1 // exact

	for i := 0; i < w.m; i++ {
		if i == r {
			continue
		}
		rowI := w.row(i)
		f := rowI[enter]
		if f == 0 {
			continue
		}
		for k, j := range cols {
			rowI[j] -= f * vals[k]
		}
		rowI[enter] = 0 // exact
		w.rhs[i] -= f * w.rhs[r]
		if w.rhs[i] < 0 && w.rhs[i] > -eps {
			w.rhs[i] = 0
		}
	}

	f := w.cbar[enter]
	if f != 0 {
		for k, j := range cols {
			w.cbar[j] -= f * vals[k]
		}
		w.cbar[enter] = 0
		w.z += f * w.rhs[r]
	}

	w.inb[w.basis[r]] = false
	w.basis[r] = enter
	w.inb[enter] = true
}

// purgeArtificials removes artificial variables (and x₀) that remain
// basic at zero level after phase 1 by pivoting in any structural column
// with a nonzero entry in that row. Rows with no such column are linearly dependent and
// are neutralized (the artificial stays basic at 0; it can never leave and
// never affects phase 2 because its row is all-zero on structural columns).
// It returns the number of pivots it took.
func (w *Workspace) purgeArtificials() int {
	pivots := 0
	for i := 0; i < w.m; i++ {
		if w.basis[i] < w.n {
			continue
		}
		for j := 0; j < w.n; j++ {
			if w.inb[j] {
				continue
			}
			if math.Abs(w.at(i, j)) > math.Sqrt(eps) {
				w.pivot(i, j)
				pivots++
				break
			}
		}
	}
	return pivots
}
