package solver

import (
	"context"
	"fmt"

	"auditgame/internal/game"
)

// BruteForceResult is the exact OAP optimum over the integer threshold
// grid, plus how many grid points were examined.
type BruteForceResult struct {
	Policy *MixedPolicy
	// Explored counts threshold vectors whose LP was solved.
	Explored int
	// GridSize is the full grid cardinality ∏(J_t + 1) before the
	// Σb_t ≥ B filter, the denominator of the paper's exploration
	// ratio T′.
	GridSize int
}

// BruteForce exhaustively solves the OAP as in §IV-B: it enumerates every
// integer threshold vector with b_t ∈ {0, C_t, …, J_t·C_t} (J_t the top of
// the truncated count support) and Σ b_t ≥ min(B, Σ caps), solves the
// ordering LP to optimality at each, and returns the best. Exponential in
// |T|; it exists as ground truth for the controlled evaluation. The
// context is checked at every explored grid point.
func BruteForce(ctx context.Context, in *game.Instance) (*BruteForceResult, error) {
	return bruteForce(ctx, in, true)
}

// bruteForce is BruteForce with the grid-swept pal table switchable:
// the sweep shares trie-prefix row work across grid points (see
// game.PalGridSweep) and is bitwise-equivalent to evaluating each point
// from scratch — the per-point path remains as the fallback for grids
// past the sweep's memory cap and as the golden reference its
// equivalence test pins the sweep against. Both paths solve each point
// from uncached pal vectors: every threshold vector is visited once,
// so caching them would be pure map and GC pressure.
func bruteForce(ctx context.Context, in *game.Instance, sweep bool) (result *BruteForceResult, err error) {
	defer contain("brute", &err)
	nT := in.G.NumTypes()
	if nT > 6 {
		return nil, fmt.Errorf("solver: brute force over %d types is intractable; use ISHM", nT)
	}
	steps := make([]int, nT) // J_t: max multiples of C_t
	var capSum float64
	for t := range steps {
		_, hi := in.G.Types[t].Dist.Support()
		steps[t] = hi
		capSum += float64(hi) * in.G.Types[t].Cost
	}
	minSum := in.Budget
	if capSum < minSum {
		minSum = capSum
	}

	res := &BruteForceResult{GridSize: 1}
	for _, s := range steps {
		res.GridSize *= s + 1
	}

	b := make(game.Thresholds, nT)
	ks := make([]int, nT)
	all := game.AllOrderings(nT)
	var pg *game.PalGrid
	if sweep {
		pg = in.PalGridSweep(all, steps) // nil: grid too large, solve per point
	}
	var best *MixedPolicy
	var rec func(t int, sum float64) error
	rec = func(t int, sum float64) error {
		if t == nT {
			if sum < minSum-1e-9 {
				return nil
			}
			res.Explored++
			if err := ctx.Err(); err != nil {
				return err
			}
			var pals [][]float64
			if pg != nil {
				pals = pg.Pals(ks)
			} else {
				pals = in.PalBatchNoCache(all, b)
			}
			lpres, err := in.SolveFixedPals(all, pals)
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
			ks[t] = k
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
		return nil, fmt.Errorf("solver: no feasible threshold vector (budget %v exceeds grid)", in.Budget)
	}
	res.Policy = best
	return res, nil
}

// lexLess orders threshold vectors by total then lexicographically,
// implementing the paper's "smallest optimal threshold" tie-break.
func lexLess(a, b game.Thresholds) bool {
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	if sa != sb {
		return sa < sb
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
