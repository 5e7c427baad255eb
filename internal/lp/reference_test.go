package lp

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSolve2D solves min c·x s.t. A·x ≤ b, x ≥ 0 in two variables by
// enumerating all candidate vertices (pairwise constraint intersections
// plus axis intersections) — an independent oracle for cross-checking the
// simplex. Returns +Inf objective if infeasible; assumes boundedness.
func referenceSolve2D(c [2]float64, A [][2]float64, b []float64) float64 {
	feasible := func(x, y float64) bool {
		if x < -1e-9 || y < -1e-9 {
			return false
		}
		for i, row := range A {
			if row[0]*x+row[1]*y > b[i]+1e-9 {
				return false
			}
		}
		return true
	}
	best := math.Inf(1)
	consider := func(x, y float64) {
		if feasible(x, y) {
			if v := c[0]*x + c[1]*y; v < best {
				best = v
			}
		}
	}
	consider(0, 0)
	// Intersections of each constraint with the axes.
	for i, row := range A {
		if row[0] != 0 {
			consider(b[i]/row[0], 0)
		}
		if row[1] != 0 {
			consider(0, b[i]/row[1])
		}
	}
	// Pairwise constraint intersections.
	for i := range A {
		for j := i + 1; j < len(A); j++ {
			det := A[i][0]*A[j][1] - A[i][1]*A[j][0]
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (b[i]*A[j][1] - b[j]*A[i][1]) / det
			y := (A[i][0]*b[j] - A[j][0]*b[i]) / det
			consider(x, y)
		}
	}
	return best
}

// TestSimplexMatchesVertexEnumeration cross-checks the simplex against
// the independent vertex oracle on many random bounded 2-variable LPs.
func TestSimplexMatchesVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(5)
		var c [2]float64
		c[0] = float64(rng.Intn(11) - 5)
		c[1] = float64(rng.Intn(11) - 5)
		A := make([][2]float64, m)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			A[i][0] = float64(rng.Intn(7) - 2)
			A[i][1] = float64(rng.Intn(7) - 2)
			b[i] = float64(rng.Intn(12))
		}
		// Boundedness cap: x + y ≤ 20 (also keeps the oracle's vertex
		// set finite and complete).
		A = append(A, [2]float64{1, 1})
		b = append(b, 20)

		want := referenceSolve2D(c, A, b)

		lc := lpCase{c: c[:]}
		for i := range A {
			lc.rows = append(lc.rows, row{[]float64{A[i][0], A[i][1]}, le, b[i]})
		}
		sol := lc.solve(Options{})
		// x = y = 0 is always feasible here (b ≥ 0), so optimal is the
		// only acceptable status.
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: simplex %v vs vertex oracle %v (c=%v A=%v b=%v)",
				trial, sol.Objective, want, c, A, b)
		}
	}
}
