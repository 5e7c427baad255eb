package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomGame is the LP of a random zero-sum matrix game — the shape of
// the column-generation restricted master: maximize v subject to
// v − Σ_k a_{sk}·p_k ≤ 0 for every scenario s, Σ_k p_k = 1, p ≥ 0, v
// free; written as the minimum of −v over columns (v⁺, v⁻, p…). Phase 1
// is a single pivot (only the probability row needs an artificial) and
// phase 2 does the real work, which is where warm starts matter.
func randomGame(rng *rand.Rand, nStrats, nRows int, perturb float64) lpCase {
	n := 2 + nStrats
	lc := lpCase{c: make([]float64, n)}
	lc.c[0], lc.c[1] = -1, 1
	for r := 0; r < nRows; r++ {
		coef := make([]float64, n)
		coef[0], coef[1] = 1, -1
		for k := 2; k < n; k++ {
			coef[k] = -(rng.Float64() + perturb*rng.NormFloat64())
		}
		lc.rows = append(lc.rows, row{coef, le, 0})
	}
	sum := ones(n)
	sum[0], sum[1] = 0, 0
	lc.rows = append(lc.rows, row{sum, eq, 1})
	return lc
}

// basisOf copies a solve's basis out of its workspace.
func basisOf(s solution) []int { return append([]int(nil), s.Basis...) }

func TestWarmSameProblemMatchesCold(t *testing.T) {
	lc := randomGame(rand.New(rand.NewSource(7)), 20, 12, 0)
	cold := lc.solve(Options{})
	if cold.Status != Optimal {
		t.Fatalf("cold status = %v", cold.Status)
	}
	if len(cold.Basis) != len(lc.rows) {
		t.Fatalf("cold basis has %d entries for %d rows", len(cold.Basis), len(lc.rows))
	}
	warm := lc.solve(Options{Warm: basisOf(cold)})
	if warm.Status != Optimal {
		t.Fatalf("warm status = %v", warm.Status)
	}
	if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("warm objective %.12f != cold %.12f (|Δ|=%g)", warm.Objective, cold.Objective, d)
	}
	for i := range warm.x {
		if d := math.Abs(warm.x[i] - cold.x[i]); d > 1e-8 {
			t.Fatalf("x[%d]: warm %.12f != cold %.12f", i, warm.x[i], cold.x[i])
		}
	}
}

func TestWarmPerturbedProblemMatchesColdAndSavesPivots(t *testing.T) {
	const trials = 5
	savedSomewhere := false
	for trial := 0; trial < trials; trial++ {
		seed := int64(100 + trial)
		sol0 := randomGame(rand.New(rand.NewSource(seed)), 30, 20, 0).solve(Options{})
		if sol0.Status != Optimal {
			t.Fatalf("base status = %v", sol0.Status)
		}
		// Perturbed instance: same structure, slightly moved coefficients
		// — the shape of a refit master.
		perturbed := randomGame(rand.New(rand.NewSource(seed)), 30, 20, 0.01)
		cold := perturbed.solve(Options{})
		warm := perturbed.solve(Options{Warm: basisOf(sol0)})
		if cold.Status != Optimal || warm.Status != Optimal {
			t.Fatalf("statuses: cold %v warm %v", cold.Status, warm.Status)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-8 {
			t.Fatalf("trial %d: warm objective %.12f != cold %.12f", trial, warm.Objective, cold.Objective)
		}
		if warm.Iterations < cold.Iterations {
			savedSomewhere = true
		}
	}
	if !savedSomewhere {
		t.Fatalf("warm start never beat cold pivot count across %d perturbed trials", trials)
	}
}

func TestWarmIgnoresIncompatibleBasis(t *testing.T) {
	lc := randomGame(rand.New(rand.NewSource(9)), 10, 6, 0)
	cold := lc.solve(Options{})
	if cold.Status != Optimal {
		t.Fatalf("cold status = %v", cold.Status)
	}
	n := len(lc.c) + len(lc.rows) - 1 // structural + slack columns
	for name, warm := range map[string][]int{
		// A basis for a smaller problem: installs what it names.
		"short": {0, 3, 5},
		// Garbage: out of range, negative, artificials, repeats.
		"garbage": {999, -1, n, n + 3, 2, 2, n + len(lc.rows) + 7},
	} {
		sol := lc.solve(Options{Warm: warm})
		if sol.Status != Optimal || math.Abs(sol.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("%s warm basis changed the answer: %v obj %.12f vs %.12f", name, sol.Status, sol.Objective, cold.Objective)
		}
	}
}

func TestWarmWithAddedVariables(t *testing.T) {
	// Column generation shape: solve, add columns, warm start the grown
	// problem with the old basis renumbered (the slacks move right).
	build := func(extra int) lpCase {
		lc := lpCase{
			c: []float64{1, 2},
			rows: []row{
				{[]float64{1, 1}, ge, 4},
				{[]float64{1, 0}, le, 3},
			},
		}
		for i := 0; i < extra; i++ {
			lc.c = append(lc.c, 0.5)
			lc.rows[0].coef = append(lc.rows[0].coef, 1.5)
			lc.rows[1].coef = append(lc.rows[1].coef, 0)
		}
		return lc
	}
	small := build(0).solve(Options{})
	if small.Status != Optimal {
		t.Fatalf("small status = %v", small.Status)
	}
	grown := build(3)
	warm := basisOf(small)
	for i, j := range warm {
		if j >= 2 {
			warm[i] = j + 3
		}
	}
	grownCold := grown.solve(Options{})
	grownWarm := grown.solve(Options{Warm: warm})
	if grownWarm.Status != Optimal {
		t.Fatalf("grown warm status = %v", grownWarm.Status)
	}
	if d := math.Abs(grownWarm.Objective - grownCold.Objective); d > 1e-9 {
		t.Fatalf("grown warm objective %.12f != cold %.12f", grownWarm.Objective, grownCold.Objective)
	}
}

func TestWarmBasisRoundTripsDuals(t *testing.T) {
	// Warm solves must leave duals intact — column generation prices
	// off them.
	lc := randomGame(rand.New(rand.NewSource(21)), 15, 10, 0)
	cold := lc.solve(Options{})
	warm := lc.solve(Options{Warm: basisOf(cold)})
	if len(warm.dual) != len(cold.dual) {
		t.Fatalf("dual lengths differ")
	}
	for i := range warm.dual {
		if d := math.Abs(warm.dual[i] - cold.dual[i]); d > 1e-7 {
			t.Fatalf("dual[%d]: warm %.12f vs cold %.12f", i, warm.dual[i], cold.dual[i])
		}
	}
}
