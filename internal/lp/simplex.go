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
	clear(w.inb)
	clear(w.blocked)
	copy(w.tab, w.A[:m*n])
	clear(w.tab[m*n:])
	for i := 0; i < m; i++ {
		w.tab[(n+i)*m+i] = 1 // artificial; x₀ stays 0
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

// col returns tableau column j.
func (w *Workspace) col(j int) []float64 { return w.tab[j*w.m : (j+1)*w.m] }

// at returns tableau entry (i, j).
func (w *Workspace) at(i, j int) float64 { return w.tab[j*w.m+i] }

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
		for i, a := range w.col(j) {
			if w.claimed[i] {
				continue
			}
			if v := math.Abs(a); v > best {
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
	c := w.col(x0)
	for i, v := range w.rhs {
		if v < -eps {
			c[i] = -1
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
// tableau body already equals B⁻¹A. Each reduced cost sums its column
// over the rows whose basic column has a nonzero cost, in row order.
func (w *Workspace) setObjective(c []float64) {
	w.z = 0
	rows, cb := w.touched[:0], w.mult[:0]
	for i, bj := range w.basis {
		if v := c[bj]; v != 0 {
			w.z += v * w.rhs[i]
			rows, cb = append(rows, i), append(cb, v)
		}
	}
	for j := range w.cbar {
		col, d := w.col(j), c[j]
		for k, i := range rows {
			d -= cb[k] * col[i]
		}
		w.cbar[j] = d
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
	for _, a := range w.col(j) {
		if a > best {
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
	for i, aie := range w.col(enter) {
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
	si := 1 / w.at(i, enter)
	sr := 1 / w.at(r, enter)
	for j := w.n; j < w.n+w.m; j++ {
		vi := w.at(i, j) * si
		vr := w.at(r, j) * sr
		if vi != vr {
			return vi < vr
		}
	}
	return false
}

// pivot makes column enter basic in row r.
//
// It scales the pivot row, gathering its nonzeros (column enter aside)
// into nzCol/nzVal — a strided read, one entry per column — and copies
// column enter into mult, with a 0 in row r, as the multipliers f. The
// basic values of the rows with f_i ≠ 0 are updated in row order, and
// then each gathered column (j, v) gets c_i −= f_i·v: by index over just
// those rows when few rows have one (indexedSweep), and otherwise down
// the whole column, which is faster once most rows change. Column enter
// becomes exactly e_r.
//
// Every entry with f_i ≠ 0 sees exactly the arithmetic of a full-row
// update of the tableau stored by row, in the same order. The
// whole-column sweep also computes x − 0·v where f_i = 0, which differs
// from x only when x = −0 (it can turn into +0). Nothing reads a zero's
// sign: the pivot rules and the lexicographic test compare entries by
// value, and the duals come from the artificials' reduced costs, which
// start at +0 or 1 and so are never −0.
func (w *Workspace) pivot(r, enter int) {
	m := w.m
	tab := w.tab[:m*(w.n+m+1)]
	ce := tab[enter*m : (enter+1)*m]
	inv := 1 / ce[r]
	nz := 0
	for j, k := 0, r; k < len(tab); j, k = j+1, k+m {
		if a := tab[k]; a != 0 && j != enter {
			a *= inv
			tab[k] = a
			w.nzCol[nz], w.nzVal[nz] = j, a
			nz++
		}
	}
	cols, vals := w.nzCol[:nz], w.nzVal[:nz]
	w.rhs[r] *= inv

	f := w.mult[:m]
	copy(f, ce)
	f[r] = 0
	rows := w.touched[:0]
	br := w.rhs[r]
	for i, fi := range f {
		if fi == 0 {
			continue
		}
		rows = append(rows, i)
		w.rhs[i] -= fi * br
		if w.rhs[i] < 0 && w.rhs[i] > -eps {
			w.rhs[i] = 0
		}
	}
	if indexedSweep(len(rows), m) {
		for k, j := range cols {
			c, v := tab[j*m:(j+1)*m], vals[k]
			for _, i := range rows {
				c[i] -= f[i] * v
			}
		}
	} else {
		// Four columns per pass, so each f_i loaded feeds four updates.
		k := 0
		for ; k+4 <= len(cols); k += 4 {
			c0 := tab[cols[k]*m : cols[k]*m+m][:len(f)]
			c1 := tab[cols[k+1]*m : cols[k+1]*m+m][:len(f)]
			c2 := tab[cols[k+2]*m : cols[k+2]*m+m][:len(f)]
			c3 := tab[cols[k+3]*m : cols[k+3]*m+m][:len(f)]
			v0, v1, v2, v3 := vals[k], vals[k+1], vals[k+2], vals[k+3]
			for i, fi := range f {
				c0[i] -= fi * v0
				c1[i] -= fi * v1
				c2[i] -= fi * v2
				c3[i] -= fi * v3
			}
		}
		for ; k < len(cols); k++ {
			c, v := tab[cols[k]*m : cols[k]*m+m][:len(f)], vals[k]
			for i, fi := range f {
				c[i] -= fi * v
			}
		}
	}
	clear(ce)
	ce[r] = 1 // exact

	fc := w.cbar[enter]
	if fc != 0 {
		for k, j := range cols {
			w.cbar[j] -= fc * vals[k]
		}
		w.cbar[enter] = 0
		w.z += fc * br
	}

	w.inb[w.basis[r]] = false
	w.basis[r] = enter
	w.inb[enter] = true
}

// indexedSweep reports whether a pivot that changes touched of its m
// rows updates each column by index over those rows rather than down
// the whole column. On the bank masters, thresholds from an eighth to
// two thirds of the rows time alike (DESIGN.md M7).
func indexedSweep(touched, m int) bool { return 4*touched < m }

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
