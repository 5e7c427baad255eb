package lp

import (
	"math"
	"math/rand"
	"testing"
)

// rel is the relation of a test LP row.
type rel int

const (
	le rel = iota
	ge
	eq
)

// row is one constraint of a test LP: Σ_j coef[j]·x_j rel rhs.
type row struct {
	coef []float64
	rel  rel
	rhs  float64
}

// lpCase is a test LP over non-negative columns: minimize cᵀx subject
// to rows. Free and bounded variables are written by the test itself
// (a free x as x⁺ − x⁻, a finite lower bound as a shift, an upper
// bound as a ≤ row), maximization as minimization of −c.
type lpCase struct {
	c    []float64
	rows []row
}

// write puts the case into w in standard form: the len(c) columns, then
// one slack (≤) or surplus (≥) column per inequality row in row order;
// a row with negative rhs is multiplied by −1; a row whose slack then
// carries +1 crashes on it. Each row is built whole and then scattered
// into A's columns. It returns the rows it flipped, whose duals change
// sign.
func (lc lpCase) write(w *Workspace) (flipped []bool) {
	n := len(lc.c)
	for _, r := range lc.rows {
		if r.rel != eq {
			n++
		}
	}
	w.Reset(len(lc.rows), n)
	copy(w.C, lc.c)
	flipped = make([]bool, len(lc.rows))
	slack := len(lc.c)
	a := make([]float64, n)
	for i, r := range lc.rows {
		clear(a)
		copy(a, r.coef)
		s := -1
		switch r.rel {
		case le:
			s, a[slack] = slack, 1
			slack++
		case ge:
			s, a[slack] = slack, -1
			slack++
		}
		w.B[i] = r.rhs
		if r.rhs < 0 {
			flipped[i] = true
			w.B[i] = -r.rhs
			for j := range a {
				a[j] *= -1
			}
		}
		if s >= 0 && a[s] == 1 {
			w.Crash[i] = s
		}
		for j, v := range a {
			w.Col(j)[i] = v
		}
	}
	return flipped
}

// solution is a solved lpCase: the status, objective and pivots, the
// case's column values, and the row duals in the case's own signs.
type solution struct {
	Result
	x, dual []float64
}

func (lc lpCase) solve(o Options) solution {
	var w Workspace
	flipped := lc.write(&w)
	r := w.Solve(o)
	s := solution{Result: r}
	if r.Status != Optimal {
		return s
	}
	s.x = append([]float64(nil), r.X[:len(lc.c)]...)
	s.dual = make([]float64, len(lc.rows))
	for i, y := range r.Y {
		if flipped[i] {
			y = -y
		}
		s.dual[i] = y
	}
	return s
}

func solveOrFatal(t *testing.T, lc lpCase) solution {
	t.Helper()
	sol := lc.solve(Options{})
	if sol.Status != Optimal {
		t.Fatalf("Solve status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// Classic production problem, maximized as the minimum of −c:
//
//	max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//
// Optimum (2,6) with objective 36; duals of the maximum (0, 1.5, 1),
// so the minimum's duals are their negatives.
func TestMaximizeKnownOptimum(t *testing.T) {
	sol := solveOrFatal(t, lpCase{
		c: []float64{-3, -5},
		rows: []row{
			{[]float64{1, 0}, le, 4},
			{[]float64{0, 2}, le, 12},
			{[]float64{3, 2}, le, 18},
		},
	})
	approx(t, "objective", sol.Objective, -36, 1e-8)
	approx(t, "x", sol.x[0], 2, 1e-8)
	approx(t, "y", sol.x[1], 6, 1e-8)
	approx(t, "dual c1", sol.dual[0], 0, 1e-8)
	approx(t, "dual c2", sol.dual[1], -1.5, 1e-8)
	approx(t, "dual c3", sol.dual[2], -1, 1e-8)
}

// min x + y s.t. x + y ≥ 2, x − y = 0 → x = y = 1.
func TestMinimizeWithGEandEQ(t *testing.T) {
	sol := solveOrFatal(t, lpCase{
		c: []float64{1, 1},
		rows: []row{
			{[]float64{1, 1}, ge, 2},
			{[]float64{1, -1}, eq, 0},
		},
	})
	approx(t, "objective", sol.Objective, 2, 1e-8)
	approx(t, "x", sol.x[0], 1, 1e-8)
	approx(t, "y", sol.x[1], 1, 1e-8)
}

func TestFreeVariable(t *testing.T) {
	// min u s.t. u ≥ 3 − x, u ≥ x − 1, x = 0 → u = 3 at x = 0, with
	// u = u⁺ − u⁻ over columns (u⁺, u⁻, x).
	sol := solveOrFatal(t, lpCase{
		c: []float64{1, -1, 0},
		rows: []row{
			{[]float64{1, -1, 1}, ge, 3},
			{[]float64{1, -1, -1}, ge, -1},
			{[]float64{0, 0, 1}, eq, 0},
		},
	})
	approx(t, "u", sol.x[0]-sol.x[1], 3, 1e-8)
}

func TestFreeVariableNegativeOptimum(t *testing.T) {
	// min u s.t. u ≥ −5 → u = −5, reached on the negative part u⁻.
	sol := solveOrFatal(t, lpCase{
		c:    []float64{1, -1},
		rows: []row{{[]float64{1, -1}, ge, -5}},
	})
	approx(t, "u", sol.x[0]-sol.x[1], -5, 1e-8)
	approx(t, "objective", sol.Objective, -5, 1e-8)
}

func TestInfeasible(t *testing.T) {
	sol := lpCase{
		c: []float64{1},
		rows: []row{
			{[]float64{1}, ge, 5},
			{[]float64{1}, le, 3},
		},
	}.solve(Options{})
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// max x s.t. x ≥ 0.
	sol := lpCase{c: []float64{-1}, rows: []row{{[]float64{1}, ge, 0}}}.solve(Options{})
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerateProblemTerminates(t *testing.T) {
	// A classically degenerate LP (Beale's example structure) must
	// still terminate.
	sol := solveOrFatal(t, lpCase{
		c: []float64{-0.75, 150, -0.02, 6},
		rows: []row{
			{[]float64{0.25, -60, -0.04, 9}, le, 0},
			{[]float64{0.5, -90, -0.02, 3}, le, 0},
			{[]float64{0, 0, 1, 0}, le, 1},
		},
	})
	approx(t, "objective", sol.Objective, -0.05, 1e-8)
}

func TestBlandOptionMatchesDantzig(t *testing.T) {
	lc := lpCase{
		c: []float64{-2, -3, -1},
		rows: []row{
			{[]float64{1, 1, 1}, le, 10},
			{[]float64{2, 1, 0}, le, 8},
			{[]float64{0, 1, 3}, le, 9},
		},
	}
	s1, s2 := lc.solve(Options{}), lc.solve(Options{Bland: true})
	if s1.Status != Optimal || s2.Status != Optimal {
		t.Fatalf("statuses: %v / %v", s1.Status, s2.Status)
	}
	approx(t, "objective parity", s1.Objective, s2.Objective, 1e-8)
}

func TestEqualityWithNegativeRHS(t *testing.T) {
	// x − y = −3, minimize x + y with x,y ≥ 0 → x=0, y=3. The row is
	// written multiplied by −1 (b ≥ 0).
	sol := solveOrFatal(t, lpCase{
		c:    []float64{1, 1},
		rows: []row{{[]float64{1, -1}, eq, -3}},
	})
	approx(t, "objective", sol.Objective, 3, 1e-8)
	approx(t, "x", sol.x[0], 0, 1e-8)
	approx(t, "y", sol.x[1], 3, 1e-8)
	// Shadow price: relaxing the rhs by +δ (towards 0) reduces y by δ,
	// so dObj/dRHS = −1.
	approx(t, "dual eq", sol.dual[0], -1, 1e-8)
}

func TestRedundantConstraintHandled(t *testing.T) {
	// Duplicate rows create linearly dependent equalities after phase 1.
	sol := solveOrFatal(t, lpCase{
		c: []float64{1, 2},
		rows: []row{
			{[]float64{1, 1}, eq, 4},
			{[]float64{2, 2}, eq, 8}, // redundant
		},
	})
	approx(t, "objective", sol.Objective, 4, 1e-8)
	approx(t, "x", sol.x[0], 4, 1e-8)
}

func TestDualsShadowPriceNumerically(t *testing.T) {
	// Verify Y[i] ≈ dObjective/db_i by finite differences on a
	// non-degenerate LP.
	mk := func(b1, b2 float64) lpCase {
		return lpCase{
			c: []float64{-5, -4},
			rows: []row{
				{[]float64{6, 4}, le, b1},
				{[]float64{1, 2}, le, b2},
			},
		}
	}
	obj := func(b1, b2 float64) float64 {
		sol := mk(b1, b2).solve(Options{})
		if sol.Status != Optimal {
			return math.NaN()
		}
		return sol.Objective
	}
	sol := solveOrFatal(t, mk(24, 6))
	const h = 1e-4
	d1 := (obj(24+h, 6) - obj(24-h, 6)) / (2 * h)
	d2 := (obj(24, 6+h) - obj(24, 6-h)) / (2 * h)
	approx(t, "dual m1", sol.dual[0], d1, 1e-5)
	approx(t, "dual m2", sol.dual[1], d2, 1e-5)
}

// Property-style randomized check: generate random LPs that are feasible
// by construction (we plant a feasible point) and verify
//  1. the solver never reports infeasible,
//  2. the reported point is non-negative and within the cap,
//  3. the reported objective matches cᵀx,
//  4. the optimum is no worse than the planted point.
func TestRandomFeasibleLPsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		lc := lpCase{c: make([]float64, n)}
		for j := range lc.c {
			lc.c[j] = float64(rng.Intn(11) - 5)
		}
		// Planted feasible point.
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = float64(rng.Intn(4))
		}
		for i := 0; i < m; i++ {
			coef := make([]float64, n)
			var lhs float64
			for j := range coef {
				coef[j] = float64(rng.Intn(7) - 3)
				lhs += coef[j] * x0[j]
			}
			// Make the row satisfied at x0 with slack.
			lc.rows = append(lc.rows, row{coef, le, lhs + float64(rng.Intn(3))})
		}
		// Boundedness: Σx ≤ 50.
		lc.rows = append(lc.rows, row{ones(n), le, 50})

		sol := lc.solve(Options{})
		if sol.Status == Infeasible {
			t.Fatalf("trial %d: reported infeasible but x0 is feasible", trial)
		}
		if sol.Status != Optimal {
			continue // unbounded is impossible with the cap, but be safe
		}
		var obj, total float64
		for j := 0; j < n; j++ {
			if sol.x[j] < -1e-7 {
				t.Fatalf("trial %d: negative primal x[%d]=%v", trial, j, sol.x[j])
			}
			obj += lc.c[j] * sol.x[j]
			total += sol.x[j]
		}
		if total > 50+1e-6 {
			t.Fatalf("trial %d: cap violated: %v", trial, total)
		}
		if math.Abs(obj-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective mismatch: %v vs %v", trial, obj, sol.Objective)
		}
		var plantedObj float64
		for j := 0; j < n; j++ {
			plantedObj += lc.c[j] * x0[j]
		}
		if sol.Objective > plantedObj+1e-6 {
			t.Fatalf("trial %d: optimum %v worse than feasible point %v", trial, sol.Objective, plantedObj)
		}
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterationLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// Zero-sum game LP: the value of matching pennies is 0 with uniform mixed
// strategies — the shape of the audit game's restricted master.
func TestMatchingPenniesGameValue(t *testing.T) {
	// Row player minimizes u s.t. u ≥ payoff of each column under mix p.
	// Payoff matrix (row's loss): [[1,-1],[-1,1]]. Columns (u⁺, u⁻, p1, p2).
	sol := solveOrFatal(t, lpCase{
		c: []float64{1, -1, 0, 0},
		rows: []row{
			{[]float64{1, -1, -1, 1}, ge, 0}, // u ≥ p1 − p2
			{[]float64{1, -1, 1, -1}, ge, 0}, // u ≥ −p1 + p2
			{[]float64{0, 0, 1, 1}, eq, 1},
		},
	})
	approx(t, "game value", sol.Objective, 0, 1e-8)
	approx(t, "p1", sol.x[2], 0.5, 1e-8)
	approx(t, "p2", sol.x[3], 0.5, 1e-8)
}

// TestIterationLimitStatus caps the pivots at one and checks what a
// solve that stops short reports: the status, the phase it stopped in
// and the pivots it took. The production problem starts feasible on its
// slacks and stops in phase 2; the equality system needs two phase-1
// pivots and stops in phase 1.
func TestIterationLimitStatus(t *testing.T) {
	for _, c := range []struct {
		name  string
		lc    lpCase
		phase int
	}{
		{"slack start", lpCase{
			c: []float64{-3, -5},
			rows: []row{
				{[]float64{1, 0}, le, 4},
				{[]float64{0, 2}, le, 12},
				{[]float64{3, 2}, le, 18},
			},
		}, 2},
		{"equalities", lpCase{
			c: []float64{1, 1},
			rows: []row{
				{[]float64{1, 1}, eq, 2},
				{[]float64{1, -1}, eq, 0},
			},
		}, 1},
	} {
		sol := c.lc.solve(Options{MaxIter: 1})
		if sol.Status != IterationLimit || sol.Phase != c.phase || sol.Iterations != 1 {
			t.Errorf("%s: %v in phase %d after %d pivots, want iteration-limit in phase %d after 1",
				c.name, sol.Status, sol.Phase, sol.Iterations, c.phase)
		}
		if full := c.lc.solve(Options{}); full.Status != Optimal || full.Phase != 2 {
			t.Errorf("%s uncapped: %v in phase %d, want optimal in phase 2", c.name, full.Status, full.Phase)
		}
	}
}

// TestWorkspaceReuseMatchesFresh solves a sequence of LPs on one
// workspace, and each solve must equal a fresh workspace's bit for bit.
// The row count, which is the tableau's column stride, shrinks and
// grows along the way: large → small → large, the shrink-and-grow
// with the storage's capacity already in hand, and then a wide LP, a
// tall one and the wide one again, where m and n move in opposite
// directions.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	large, small := randomGame(rng, 40, 30, 0), randomGame(rng, 4, 3, 0)
	wide, tall := randomGame(rng, 60, 8, 0), randomGame(rng, 6, 40, 0)
	var w Workspace
	for k, lc := range []lpCase{large, small, large, wide, tall, wide} {
		fresh := lc.solve(Options{})
		lc.write(&w)
		got := w.Solve(Options{})
		if got.Status != Optimal || got.Iterations != fresh.Iterations ||
			math.Float64bits(got.Objective) != math.Float64bits(fresh.Objective) {
			t.Fatalf("solve %d, reused workspace: %v, %d pivots, objective %v; fresh: %v, %d, %v",
				k, got.Status, got.Iterations, got.Objective, fresh.Status, fresh.Iterations, fresh.Objective)
		}
		for j := range fresh.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(fresh.X[j]) {
				t.Fatalf("solve %d, column %d: value %v, fresh %v", k, j, got.X[j], fresh.X[j])
			}
		}
		for i := range fresh.Y {
			if math.Float64bits(got.Y[i]) != math.Float64bits(fresh.Y[i]) || got.Basis[i] != fresh.Basis[i] {
				t.Fatalf("solve %d, row %d: dual %v basic %d, fresh %v %d", k, i, got.Y[i], got.Basis[i], fresh.Y[i], fresh.Basis[i])
			}
		}
	}
}
