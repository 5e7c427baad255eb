package lp

import (
	"math/rand"
	"testing"
)

// The LPs below have bounded variables, written in standard form by
// hand: a finite lower bound lo as the shift x = lo + s with s ≥ 0 (the
// constant moves to the right-hand sides and the objective), a finite
// upper bound as the row s ≤ hi − lo, and no lower bound as a free
// split x = x⁺ − x⁻.

func TestBoundedVarBoth(t *testing.T) {
	// max x + y with 1 ≤ x ≤ 3, 0 ≤ y ≤ 2, x + y ≤ 4 → objective 4.
	// Columns (s, y) with x = 1 + s: min −s − y − 1.
	sol := solveOrFatal(t, lpCase{
		c: []float64{-1, -1},
		rows: []row{
			{[]float64{1, 0}, le, 2},
			{[]float64{0, 1}, le, 2},
			{[]float64{1, 1}, le, 3},
		},
	})
	approx(t, "objective", -(sol.Objective - 1), 4, 1e-8)
	if x := 1 + sol.x[0]; x < 1-1e-9 || x > 3+1e-9 {
		t.Fatalf("x = %v outside [1,3]", x)
	}
	if y := sol.x[1]; y < -1e-9 || y > 2+1e-9 {
		t.Fatalf("y = %v outside [0,2]", y)
	}
}

func TestBoundedVarLowerOnlyShift(t *testing.T) {
	// min x with 5 ≤ x and x ≤ 100: x = 5 + s, s ≤ 95.
	sol := solveOrFatal(t, lpCase{c: []float64{1}, rows: []row{{[]float64{1}, le, 95}}})
	approx(t, "x", 5+sol.x[0], 5, 1e-8)
	approx(t, "objective", sol.Objective+5, 5, 1e-8)
}

func TestBoundedVarNegativeLower(t *testing.T) {
	// min x with −4 ≤ x ≤ −1: x = −4 + s, s ≤ 3 → −4.
	sol := solveOrFatal(t, lpCase{c: []float64{1}, rows: []row{{[]float64{1}, le, 3}}})
	approx(t, "x", -4+sol.x[0], -4, 1e-8)
	approx(t, "objective", sol.Objective-4, -4, 1e-8)
}

func TestBoundedVarUpperOnly(t *testing.T) {
	// max x with x ≤ 7 and no lower bound → 7.
	sol := solveOrFatal(t, lpCase{c: []float64{-1, 1}, rows: []row{{[]float64{1, -1}, le, 7}}})
	approx(t, "x", sol.x[0]-sol.x[1], 7, 1e-8)
}

func TestBoundedVarUnbounded(t *testing.T) {
	// Fully unbounded x is a free split: min x s.t. x ≥ −9 → −9.
	sol := solveOrFatal(t, lpCase{c: []float64{1, -1}, rows: []row{{[]float64{1, -1}, ge, -9}}})
	approx(t, "x", sol.x[0]-sol.x[1], -9, 1e-8)
}

func TestBoundedVarInConstraints(t *testing.T) {
	// A shifted variable contributes its constant to every row:
	// 2 ≤ x ≤ 6, y ≥ 0, x + y = 8, min x + 3y → x = 6, y = 2. Columns
	// (s, y) with x = 2 + s: s ≤ 4, s + y = 6, min s + 3y + 2.
	sol := solveOrFatal(t, lpCase{
		c: []float64{1, 3},
		rows: []row{
			{[]float64{1, 0}, le, 4},
			{[]float64{1, 1}, eq, 6},
		},
	})
	approx(t, "x", 2+sol.x[0], 6, 1e-8)
	approx(t, "y", sol.x[1], 2, 1e-8)
	approx(t, "objective", sol.Objective+2, 12, 1e-8)
}

// The paper's Eq. 5 writes 0 ≤ p_o ≤ 1 explicitly; written verbatim,
// with p_o ≤ 1 rows, the game LP must give the same answer as without
// them (Σ p_o = 1 already forces p_o ≤ 1).
func TestExplicitProbabilityBoundsMatchImplicit(t *testing.T) {
	game := func(explicit bool) float64 {
		// Columns (u⁺, u⁻, p1, p2).
		lc := lpCase{
			c: []float64{1, -1, 0, 0},
			rows: []row{
				{[]float64{1, -1, -1, 1}, ge, 0},
				{[]float64{1, -1, 1, -1}, ge, 0},
				{[]float64{0, 0, 1, 1}, eq, 1},
			},
		}
		if explicit {
			lc.rows = append(lc.rows, row{[]float64{0, 0, 1, 0}, le, 1}, row{[]float64{0, 0, 0, 1}, le, 1})
		}
		return solveOrFatal(t, lc).Objective
	}
	approx(t, "explicit vs implicit", game(true), game(false), 1e-8)
}

// Property-style randomized check: shifted, box-bounded variables
// always respect their bounds at the optimum.
func TestBoundedVarsRespectBoundsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(3)
		los := make([]float64, n)
		his := make([]float64, n)
		lc := lpCase{c: make([]float64, n)}
		for j := 0; j < n; j++ {
			los[j] = float64(rng.Intn(7) - 3)
			his[j] = los[j] + float64(rng.Intn(5))
			lc.c[j] = float64(rng.Intn(9) - 4)
			ub := make([]float64, n)
			ub[j] = 1
			lc.rows = append(lc.rows, row{ub, le, his[j] - los[j]})
		}
		// One linking row that is always satisfiable (sum within the
		// box's range), shifted by the lower bounds.
		var minSum, maxSum float64
		for j := 0; j < n; j++ {
			minSum += los[j]
			maxSum += his[j]
		}
		target := minSum + (maxSum-minSum)*rng.Float64()
		lc.rows = append(lc.rows, row{ones(n), ge, target - minSum})

		sol := lc.solve(Options{})
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		for j := 0; j < n; j++ {
			x := los[j] + sol.x[j]
			if x < los[j]-1e-7 || x > his[j]+1e-7 {
				t.Fatalf("trial %d: x[%d] = %v outside [%v,%v]", trial, j, x, los[j], his[j])
			}
		}
	}
}
