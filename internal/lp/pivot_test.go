package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// densePivot is the full-row pivot of the row-major tableau that
// pivot replaced, kept as the reference it must match: it scales every
// entry of row r and updates every entry of each row with a nonzero in
// the entering column, row after row, and then the reduced-cost row.
// It indexes the tableau by (i, j), so it does not depend on the layout.
func densePivot(w *Workspace, r, enter int) {
	m, cols := w.m, w.n+w.m+1
	at := func(i, j int) *float64 { return &w.tab[j*m+i] }
	inv := 1 / *at(r, enter)
	for j := 0; j < cols; j++ {
		*at(r, j) *= inv
	}
	w.rhs[r] *= inv
	*at(r, enter) = 1 // exact

	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := *at(i, enter)
		if f == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			*at(i, j) -= f * *at(r, j)
		}
		*at(i, enter) = 0 // exact
		w.rhs[i] -= f * w.rhs[r]
		if w.rhs[i] < 0 && w.rhs[i] > -eps {
			w.rhs[i] = 0
		}
	}

	f := w.cbar[enter]
	if f != 0 {
		for j := 0; j < cols; j++ {
			w.cbar[j] -= f * *at(r, j)
		}
		w.cbar[enter] = 0
		w.z += f * w.rhs[r]
	}

	w.inb[w.basis[r]] = false
	w.basis[r] = enter
	w.inb[enter] = true
}

// twin is a problem loaded into two workspaces that take the same pivot
// sequence, one through pivot and one through densePivot.
type twin struct {
	w, ref    *Workspace
	pivots    int // pivots taken
	indexed   int // pivots that updated their columns by index
	whole     int // pivots that swept their columns whole
	negative  int // pivots on a negative element (warm install and x₀)
	auxiliary int // warm starts that took the auxiliary pivot: 0 or 1
	err       error
}

// cloneProblem returns a fresh workspace holding the problem written
// into w.
func cloneProblem(w *Workspace) *Workspace {
	c := new(Workspace)
	c.Reset(w.m, w.n)
	copy(c.A, w.A)
	copy(c.B, w.B)
	copy(c.C, w.C)
	copy(c.Crash, w.Crash)
	return c
}

// both applies f to the two workspaces.
func (tw *twin) both(f func(*Workspace)) { f(tw.w); f(tw.ref) }

// pivot takes one pivot on both workspaces and compares them.
func (tw *twin) pivot(r, enter int) {
	if tw.err != nil {
		return
	}
	if tw.w.at(r, enter) < 0 {
		tw.negative++
	}
	if indexedSweep(touchedRows(tw.w, r, enter), tw.w.m) {
		tw.indexed++
	} else {
		tw.whole++
	}
	tw.w.pivot(r, enter)
	densePivot(tw.ref, r, enter)
	tw.pivots++
	if err := sameTableau(tw.w, tw.ref); err != nil {
		tw.err = fmt.Errorf("pivot %d (row %d, column %d): %w", tw.pivots, r, enter, err)
	}
}

// touchedRows counts the rows other than r with a nonzero in column
// enter: the rows whose entries pivot(r, enter) updates.
func touchedRows(w *Workspace, r, enter int) int {
	touched := 0
	for i, a := range w.col(enter) {
		if i != r && a != 0 {
			touched++
		}
	}
	return touched
}

// sameTableau compares every tableau entry, basic value and reduced
// cost and the objective by value, so −0 and +0 count as equal, and
// the bases exactly.
func sameTableau(w, ref *Workspace) error {
	m, n := w.m, w.n
	stride := n + m + 1
	for i := 0; i < m; i++ {
		for j := 0; j < stride; j++ {
			if v, want := w.at(i, j), ref.at(i, j); v != want {
				return fmt.Errorf("tableau (row %d, column %d) = %v, dense %v", i, j, v, want)
			}
		}
	}
	for i, v := range w.rhs[:m] {
		if v != ref.rhs[i] {
			return fmt.Errorf("rhs[%d] = %v, dense %v", i, v, ref.rhs[i])
		}
		if w.basis[i] != ref.basis[i] {
			return fmt.Errorf("basis[%d] = %d, dense %d", i, w.basis[i], ref.basis[i])
		}
	}
	for j, v := range w.cbar[:stride] {
		if v != ref.cbar[j] {
			return fmt.Errorf("cbar[%d] = %v, dense %v", j, v, ref.cbar[j])
		}
	}
	if w.z != ref.z {
		return fmt.Errorf("z = %v, dense %v", w.z, ref.z)
	}
	return nil
}

// run takes Solve's pivot sequence — warm install, the auxiliary pivot
// when the install lands infeasible, phase 1, the artificial purge and
// phase 2 — choosing each pivot on the sparse side and taking it on
// both. It returns Solve's status.
func (tw *twin) run(o Options) Status {
	w := tw.w
	m, n := w.m, w.n
	if o.MaxIter == 0 {
		o.MaxIter = 200 * (m + n + 10)
	}
	tw.both(func(x *Workspace) {
		x.load()
		clear(x.phase1[:n])
		for j := n; j <= n+m; j++ {
			x.phase1[j] = 1
		}
	})
	if len(o.Warm) > 0 {
		tw.both(func(x *Workspace) { x.setObjective(x.phase1) })
		tw.warmInstall(o.Warm)
		tw.auxiliaryPivot()
	}
	tw.both(func(x *Workspace) { x.setObjective(x.phase1) })
	if tw.iterate(o, true) == IterationLimit {
		return IterationLimit
	}
	if w.artificialMass() > math.Sqrt(eps) {
		return Infeasible
	}
	for i := 0; i < m; i++ {
		if w.basis[i] < n {
			continue
		}
		for j := 0; j < n; j++ {
			if !w.inb[j] && math.Abs(w.at(i, j)) > math.Sqrt(eps) {
				tw.pivot(i, j)
				break
			}
		}
	}
	tw.both(func(x *Workspace) {
		copy(x.phase2[:n], x.C)
		clear(x.phase2[n:])
		x.setObjective(x.phase2)
	})
	return tw.iterate(o, false)
}

// warmInstall is Workspace.warmInstall's row choice.
func (tw *twin) warmInstall(desired []int) {
	w := tw.w
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
	for _, j := range desired {
		if j < 0 || j >= w.n || w.inb[j] {
			continue
		}
		best, row := warmInstallTol, -1
		for i := 0; i < w.m; i++ {
			if v := math.Abs(w.at(i, j)); !w.claimed[i] && v > best {
				best, row = v, i
			}
		}
		if row >= 0 {
			tw.pivot(row, j)
			w.claimed[row] = true
		}
	}
}

// auxiliaryPivot is Workspace.auxiliaryPivot's row choice and x₀
// column, written into both workspaces.
func (tw *twin) auxiliaryPivot() {
	w := tw.w
	row, worst := -1, -eps
	for i := 0; i < w.m; i++ {
		if w.rhs[i] < worst {
			worst, row = w.rhs[i], i
		}
	}
	if row < 0 {
		return
	}
	x0 := w.n + w.m
	for i := 0; i < w.m; i++ {
		if w.rhs[i] < -eps {
			tw.both(func(x *Workspace) { x.col(x0)[i] = -1 })
		}
	}
	tw.pivot(row, x0)
	tw.auxiliary++
}

// iterate is Workspace.iterate's pivot choice.
func (tw *twin) iterate(o Options, phase1 bool) Status {
	w := tw.w
	bland, stall, lastZ := o.Bland, 0, w.z
	for iter := 0; iter < o.MaxIter; iter++ {
		enter := w.chooseEntering(bland, phase1)
		if enter < 0 {
			return Optimal
		}
		leave := w.chooseLeaving(enter)
		if leave < 0 {
			if w.maxColumnEntry(enter) <= 0 {
				return Unbounded
			}
			tw.both(func(x *Workspace) { x.blocked[enter] = true })
			continue
		}
		tw.pivot(leave, enter)
		tw.both(func(x *Workspace) { clear(x.blocked) })
		if w.z < lastZ-eps {
			lastZ, stall, bland = w.z, 0, o.Bland
		} else if stall++; stall > 64 {
			bland = true
		}
	}
	return IterationLimit
}

// Lockstep is the outcome of CheckPivotLockstep: Solve's own result on
// the problem, the pivots the lockstep took, how many of them updated
// their columns by index and how many swept them whole, how many were
// on a negative element, and the warm starts (0 or 1) that took the
// auxiliary pivot.
type Lockstep struct {
	Result
	Pivots, Indexed, Whole, Negative, Auxiliary int
}

// CheckPivotLockstep takes the pivot sequence of Solve(o) on the problem
// written into w through pivot and densePivot at once, comparing the
// two tableaus after every pivot, and checks that Solve itself ends
// with the same status, basis and pivot count. It leaves w solved.
func CheckPivotLockstep(w *Workspace, o Options) (Lockstep, error) {
	tw := &twin{w: cloneProblem(w), ref: cloneProblem(w)}
	st := tw.run(o)
	if tw.err != nil {
		return Lockstep{}, tw.err
	}
	ls := Lockstep{Result: w.Solve(o), Pivots: tw.pivots, Indexed: tw.indexed, Whole: tw.whole,
		Negative: tw.negative, Auxiliary: tw.auxiliary}
	if ls.Status != st {
		return ls, fmt.Errorf("lockstep ended %v, Solve %v", st, ls.Status)
	}
	if st != Optimal {
		return ls, nil
	}
	if ls.Iterations != tw.pivots {
		return ls, fmt.Errorf("lockstep took %d pivots, Solve %d", tw.pivots, ls.Iterations)
	}
	for i, bj := range ls.Basis {
		if tw.w.basis[i] != bj {
			return ls, fmt.Errorf("lockstep basis[%d] = %d, Solve's %d", i, tw.w.basis[i], bj)
		}
	}
	return ls, nil
}

// degenerateCase is a random LP with many zero right-hand sides: rows
// of ≤ 0 constraints over sparse, mixed-sign coefficients, a few ≥ and
// = rows, and a capping row, so phase 1, degenerate pivots and the
// blocked-column path all run.
func degenerateCase(rng *rand.Rand, nVars, nRows int) lpCase {
	lc := lpCase{c: make([]float64, nVars)}
	for j := range lc.c {
		lc.c[j] = float64(rng.Intn(9) - 4)
	}
	for r := 0; r < nRows; r++ {
		coef := make([]float64, nVars)
		for j := range coef {
			if rng.Intn(3) == 0 {
				coef[j] = float64(rng.Intn(9)-4) + 0.5*rng.Float64()
			}
		}
		rel, rhs := le, 0.0
		switch rng.Intn(6) {
		case 0:
			rel, rhs = ge, float64(rng.Intn(3))
		case 1:
			rel, rhs = eq, float64(rng.Intn(2))
		case 2:
			rhs = float64(rng.Intn(4))
		}
		lc.rows = append(lc.rows, row{coef, rel, rhs})
	}
	lc.rows = append(lc.rows, row{ones(nVars), le, 10})
	return lc
}

// TestPivotMatchesDenseOnRandomLPs takes every solve's pivot sequence
// through the sparse and the dense pivot at once on random degenerate
// LPs and random matrix games, cold and then warm-started from the
// basis of the same problem before a perturbation (the warm install and
// the auxiliary pivot take negative pivot elements).
func TestPivotMatchesDenseOnRandomLPs(t *testing.T) {
	var pivots, indexed, whole, negative, auxiliary int
	check := func(name string, w *Workspace, o Options) []int {
		t.Helper()
		ls, err := CheckPivotLockstep(w, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pivots += ls.Pivots
		indexed += ls.Indexed
		whole += ls.Whole
		negative += ls.Negative
		auxiliary += ls.Auxiliary
		if ls.Status != Optimal {
			return nil
		}
		return append([]int(nil), ls.Basis...)
	}
	rng := rand.New(rand.NewSource(2005))
	for trial := 0; trial < 300; trial++ {
		lc := degenerateCase(rng, 4+rng.Intn(12), 3+rng.Intn(12))
		var w Workspace
		lc.write(&w)
		cold := check(fmt.Sprintf("trial %d, cold", trial), &w, Options{})
		if cold == nil {
			continue
		}
		for i := range lc.rows {
			for j, a := range lc.rows[i].coef {
				if a != 0 {
					lc.rows[i].coef[j] += 0.3 * rng.NormFloat64()
				}
			}
		}
		lc.write(&w)
		check(fmt.Sprintf("trial %d, warm", trial), &w, Options{Warm: cold})
	}
	for trial := int64(0); trial < 40; trial++ {
		nStrats, nRows := 10+int(trial%7)*3, 8+int(trial%5)*4
		var w Workspace
		randomGame(rand.New(rand.NewSource(trial)), nStrats, nRows, 0).write(&w)
		cold := check(fmt.Sprintf("game %d, cold", trial), &w, Options{})
		randomGame(rand.New(rand.NewSource(trial)), nStrats, nRows, 0.2).write(&w)
		check(fmt.Sprintf("game %d, warm", trial), &w, Options{Warm: cold})
	}
	if negative == 0 || auxiliary == 0 || indexed == 0 || whole == 0 {
		t.Fatalf("%d pivots (%d indexed, %d whole-column), %d on a negative element, %d warm starts took the auxiliary pivot: want every path",
			pivots, indexed, whole, negative, auxiliary)
	}
	t.Logf("%d pivots (%d indexed, %d whole-column), %d on a negative element, %d warm starts took the auxiliary pivot",
		pivots, indexed, whole, negative, auxiliary)
}

// TestPivotDoesNotAllocate checks that the pivot's scratch — the
// gathered pivot row, the multiplier copy and the touched rows —
// belongs to the workspace, on both sweeps: entering a non-basic
// artificial touches no other row, and entering a structural column of
// the game touches them all.
func TestPivotDoesNotAllocate(t *testing.T) {
	var w Workspace
	randomGame(rand.New(rand.NewSource(1)), 30, 30, 0).write(&w)
	w.load()
	if !indexedSweep(touchedRows(&w, 0, w.n), w.m) || indexedSweep(touchedRows(&w, w.m-1, 2), w.m) {
		t.Fatal("want the artificial's pivot indexed and the structural column's whole-column")
	}
	allocs := testing.AllocsPerRun(20, func() {
		w.load()
		w.pivot(0, w.n)
		w.load()
		w.pivot(w.m-1, 2)
	})
	if allocs != 0 {
		t.Fatalf("a pivot allocates %v times", allocs)
	}
}
