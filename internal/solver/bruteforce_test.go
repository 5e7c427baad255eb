package solver

import (
	"context"
	"fmt"
	"math"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/workload"
)

// referenceBruteForce is the full-grid search BruteForce must reproduce:
// every grid point that passes the Σb_t ≥ min(B, Σ caps) filter is
// evaluated from scratch and its LP solved, in the grid's order, with
// the smallest-threshold tie-break.
func referenceBruteForce(in *game.Instance) (*BruteForceResult, error) {
	nT := in.G.NumTypes()
	steps := make([]int, nT)
	var capSum float64
	for t := range steps {
		_, hi := in.G.Types[t].Dist.Support()
		steps[t] = max(hi, 1)
		capSum += float64(steps[t]) * in.G.Types[t].Cost
	}
	minSum := min(in.Budget, capSum)
	res := &BruteForceResult{GridSize: 1}
	for _, s := range steps {
		res.GridSize *= s + 1
	}
	all := game.AllOrderings(nT)
	b := make(game.Thresholds, nT)
	var best *MixedPolicy
	var rec func(t int, sum float64) error
	rec = func(t int, sum float64) error {
		if t == nT {
			if sum < minSum-1e-9 {
				return nil
			}
			res.Explored++
			lpres, err := in.SolveFixedPals(all, in.PalBatchNoCache(all, b))
			if err != nil {
				return err
			}
			pol := &MixedPolicy{Q: all, Po: lpres.Po, Thresholds: b.Clone(), Objective: lpres.Objective}
			if best == nil || pol.Objective < best.Objective-1e-12 ||
				(pol.Objective < best.Objective+1e-12 && lexLess(b, best.Thresholds)) {
				best = pol
			}
			return nil
		}
		ct := in.G.Types[t].Cost
		for k := 0; k <= steps[t]; k++ {
			b[t] = float64(k) * ct
			if err := rec(t+1, sum+b[t]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("no feasible threshold vector")
	}
	res.Policy = best
	return res, nil
}

// synAVariant builds Syn A with the given per-type audit costs (nil
// keeps the unit costs) and refrain option, over its exact enumeration.
func synAVariant(t testing.TB, costs []float64, allowNoAttack bool, budget float64) *game.Instance {
	t.Helper()
	g, _, err := workload.Build("syna", workload.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range costs {
		g.Types[i].Cost = c
	}
	g.AllowNoAttack = allowNoAttack
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := game.NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameBruteForce fails unless got reproduces want bit for bit:
// objective, mixed strategy, thresholds, and the grid accounting.
func sameBruteForce(t *testing.T, label string, got, want *BruteForceResult) {
	t.Helper()
	if got.Explored != want.Explored || got.GridSize != want.GridSize {
		t.Fatalf("%s: explored %d of %d, reference %d of %d",
			label, got.Explored, got.GridSize, want.Explored, want.GridSize)
	}
	gp, wp := got.Policy, want.Policy
	if math.Float64bits(gp.Objective) != math.Float64bits(wp.Objective) {
		t.Fatalf("%s: objective %v, reference %v", label, gp.Objective, wp.Objective)
	}
	for i := range wp.Thresholds {
		if gp.Thresholds[i] != wp.Thresholds[i] {
			t.Fatalf("%s: thresholds %v, reference %v", label, gp.Thresholds, wp.Thresholds)
		}
	}
	if len(gp.Po) != len(wp.Po) {
		t.Fatalf("%s: %d ordering probabilities, reference %d", label, len(gp.Po), len(wp.Po))
	}
	for i := range wp.Po {
		if math.Float64bits(gp.Po[i]) != math.Float64bits(wp.Po[i]) {
			t.Fatalf("%s: po[%d] = %v, reference %v", label, i, gp.Po[i], wp.Po[i])
		}
	}
}

// TestBruteForceMatchesFullGridReference pins BruteForce against the
// full-grid search, bit for bit, on the 3-type test game and on Syn A
// variants: unit and mixed audit costs, with and without the refrain
// option, at budgets from 0, through fractional ones, to above Σ caps.
// The saturated sweep runs on every case, the per-point fallback on the
// test game and one Syn A case.
func TestBruteForceMatchesFullGridReference(t *testing.T) {
	check := func(label string, mk func() *game.Instance, fallback bool) {
		t.Helper()
		want, err := referenceBruteForce(mk())
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		for _, sweep := range []bool{true, false} {
			if !sweep && !fallback {
				continue
			}
			got, _, err := bruteForce(context.Background(), mk(), sweep)
			if err != nil {
				t.Fatalf("%s sweep=%v: %v", label, sweep, err)
			}
			sameBruteForce(t, fmt.Sprintf("%s sweep=%v", label, sweep), got, want)
		}
	}
	for _, budget := range []float64{0, 1, 2.5, 4, 100} {
		check(fmt.Sprintf("test game B=%v", budget), func() *game.Instance { return testInstance(t, budget) }, true)
	}
	if testing.Short() {
		return
	}
	for _, c := range []struct {
		costs         []float64
		allowNoAttack bool
		budget        float64
		fallback      bool
	}{
		{nil, false, 0, false},
		{nil, false, 3.3, false},
		{[]float64{1, 1.5, 0.7, 2}, false, 2.5, true},
		{nil, true, 40, false},
		{[]float64{0.3, 1.1, 2.5, 0.9}, true, 1, false},
		{[]float64{0.3, 1.1, 2.5, 0.9}, true, 5, false},
	} {
		check(fmt.Sprintf("Syn A costs=%v refrain=%v B=%v", c.costs, c.allowNoAttack, c.budget),
			func() *game.Instance { return synAVariant(t, c.costs, c.allowNoAttack, c.budget) }, c.fallback)
	}
}

// TestSynATable3Layers pins where the Table III solve at B = 2 does its
// work: every type saturates at k = 2, so the pal sweep covers the 3⁴ =
// 81 saturated points (81 × 24 orderings = 1,944 pal evaluations, not
// the full grid's 184,320) and 76 LPs are solved — the saturated points
// that pass the Σb_t ≥ B filter — while all 7,675 examined points of the
// 7,680-point grid keep their accounting.
func TestSynATable3Layers(t *testing.T) {
	in := synAInstance(t, 2)
	evals0 := in.PalEvals()
	res, solves, err := bruteForce(context.Background(), in, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.PalEvals() - evals0; got != 1944 {
		t.Errorf("pal evaluations %d, want 1944", got)
	}
	if solves != 76 {
		t.Errorf("LP solves %d, want 76", solves)
	}
	if res.Explored != synATable3Explored || res.GridSize != 7680 {
		t.Errorf("explored %d of %d, want %d of 7680", res.Explored, res.GridSize, synATable3Explored)
	}
}

// TestSolvesIgnoreThresholdsAboveBudget checks the kernel fact on whole
// fixed-threshold solves: Exact and CGGS at b and at b∧B (every
// coordinate above the budget lowered to B) return the same objective,
// ordering set and ordering probabilities, bit for bit.
func TestSolvesIgnoreThresholdsAboveBudget(t *testing.T) {
	for _, c := range []struct {
		costs   []float64
		refrain bool
	}{
		{nil, false},
		{[]float64{1, 1.5, 0.7, 2}, false},
		{[]float64{0.3, 1.1, 2.5, 0.9}, true},
	} {
		for _, budget := range []float64{1.5, 3, 6} {
			in := synAVariant(t, c.costs, c.refrain, budget)
			b := game.Thresholds(in.G.ThresholdCaps())
			b[1] = 0 // one coordinate below the budget
			clipped := b.Clone()
			for i := range clipped {
				clipped[i] = min(clipped[i], budget)
			}
			label := fmt.Sprintf("costs=%v refrain=%v B=%v", c.costs, c.refrain, budget)
			for _, solve := range []struct {
				name string
				run  func(b game.Thresholds) (*MixedPolicy, error)
			}{
				{"exact", func(b game.Thresholds) (*MixedPolicy, error) { return Exact(context.Background(), in, b) }},
				{"cggs", func(b game.Thresholds) (*MixedPolicy, error) {
					return CGGS(context.Background(), in, b, CGGSOptions{})
				}},
			} {
				want, err := solve.run(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := solve.run(clipped)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
					t.Fatalf("%s %s: objective %v at b∧B, %v at b", label, solve.name, got.Objective, want.Objective)
				}
				if len(got.Q) != len(want.Q) {
					t.Fatalf("%s %s: %d orderings at b∧B, %d at b", label, solve.name, len(got.Q), len(want.Q))
				}
				for i := range want.Q {
					if got.Q[i].Key() != want.Q[i].Key() || math.Float64bits(got.Po[i]) != math.Float64bits(want.Po[i]) {
						t.Fatalf("%s %s: ordering %d is %v at %v at b∧B, %v at %v at b",
							label, solve.name, i, got.Q[i], got.Po[i], want.Q[i], want.Po[i])
					}
				}
			}
		}
	}
}
