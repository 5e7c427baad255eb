package solver

import (
	"context"
	"fmt"
	"math"

	"auditgame/internal/game"
)

// BruteForceResult is the exact OAP optimum over the integer threshold
// grid, plus how many grid points were examined.
type BruteForceResult struct {
	Policy *MixedPolicy
	// Explored counts the grid points examined: those passing the
	// Σb_t ≥ min(B, Σ caps) filter. Points that agree on every type
	// below the budget share one LP (see BruteForce), so fewer LPs may
	// be solved than points examined.
	Explored int
	// GridSize is the full grid cardinality ∏(J_t + 1) before the
	// Σb_t ≥ B filter, the denominator of the paper's exploration
	// ratio T′.
	GridSize int
}

// BruteForce exhaustively solves the OAP as in §IV-B: it examines every
// integer threshold vector with b_t ∈ {0, C_t, …, J_t·C_t} (J_t the top of
// the truncated count support, floored at one alert like
// game.Game.ThresholdCaps) and Σ b_t ≥ min(B, Σ caps), and returns the
// best, ties going to the smallest threshold vector. Exponential in |T|;
// it exists as ground truth for the controlled evaluation. The context is
// checked at every examined grid point.
//
// Eq. 1 never audits more than the budget, so a threshold at or above B
// never binds: two vectors that agree on every type where either is
// below B have the same pal table bit for bit (DESIGN.md P5). The search
// therefore sweeps the pal table and solves the ordering LP only on the
// saturated grid k_t ≤ sat_t, where sat_t·C_t is the first multiple at
// or above B (or J_t), and gives every other point the objective of its
// representative min(k, sat). The walk, the filter and the tie-break run
// over the full grid in the full grid's order, so the result, Explored
// and GridSize are those of solving every point.
func BruteForce(ctx context.Context, in *game.Instance) (*BruteForceResult, error) {
	res, _, err := bruteForce(ctx, in, true)
	return res, err
}

// bruteForce is BruteForce with the grid sweep switchable so tests can
// force the per-point path, and with the number of LPs it solved. The
// per-point path is the fallback for saturated grids past
// game.PalGridSweep's memory cap: it evaluates and solves every examined
// point on its own, from uncached pal vectors, in O(1) memory.
func bruteForce(ctx context.Context, in *game.Instance, sweep bool) (result *BruteForceResult, solves int, err error) {
	defer contain("brute", &err)
	nT := in.G.NumTypes()
	if nT > 6 {
		return nil, 0, fmt.Errorf("solver: brute force over %d types is intractable; use ISHM", nT)
	}
	steps := make([]int, nT) // J_t: max multiples of C_t
	sat := make([]int, nT)   // min(J_t, first k with k·C_t ≥ B)
	var capSum float64
	for t := range steps {
		_, hi := in.G.Types[t].Dist.Support()
		steps[t] = max(hi, 1)
		ct := in.G.Types[t].Cost
		capSum += float64(steps[t]) * ct
		for sat[t] < steps[t] && float64(sat[t])*ct < in.Budget {
			sat[t]++
		}
	}
	minSum := in.Budget
	if capSum < minSum {
		minSum = capSum
	}

	res := &BruteForceResult{GridSize: 1}
	for _, s := range steps {
		res.GridSize *= s + 1
	}

	all := game.AllOrderings(nT)
	var pg *game.PalGrid
	if sweep {
		pg = in.PalGridSweep(all, sat) // nil: too large, solve per point
	}
	// objs[r] memoizes the objective of saturated point r (NaN until
	// solved); stride[t] is type t's step in that index.
	var objs []float64
	stride := make([]int, nT)
	if pg != nil {
		n := 1
		for t := nT - 1; t >= 0; t-- {
			stride[t] = n
			n *= sat[t] + 1
		}
		objs = make([]float64, n)
		for i := range objs {
			objs[i] = math.NaN()
		}
	}

	b := make(game.Thresholds, nT)
	rk := make([]int, nT) // the representative's multiples min(k, sat)
	var (
		best    game.Thresholds // nil until the first examined point
		bestObj float64
		bestLP  *game.LPResult // nil when only the objective is memoized
		bestRep = make([]int, nT)
	)
	var rec func(t int, sum float64, r int) error
	rec = func(t int, sum float64, r int) error {
		if t == nT {
			if sum < minSum-1e-9 {
				return nil
			}
			res.Explored++
			if err := ctx.Err(); err != nil {
				return err
			}
			var (
				lpres *game.LPResult
				obj   float64
				err   error
			)
			if pg == nil {
				lpres, err = in.SolveFixedPals(all, in.PalBatchNoCache(all, b))
			} else if obj = objs[r]; math.IsNaN(obj) {
				lpres, err = in.SolveFixedPals(all, pg.Pals(rk))
			}
			if err != nil {
				return err
			}
			if lpres != nil {
				solves++
				obj = lpres.Objective
				if objs != nil {
					objs[r] = obj
				}
			}
			if best == nil || obj < bestObj-1e-12 || (obj < bestObj+1e-12 && lexLess(b, best)) {
				best, bestObj, bestLP = b.Clone(), obj, lpres
				copy(bestRep, rk)
			}
			return nil
		}
		ct := in.G.Types[t].Cost
		for k := 0; k <= steps[t]; k++ {
			b[t] = float64(k) * ct
			rk[t] = min(k, sat[t])
			if err := rec(t+1, sum+b[t], r+rk[t]*stride[t]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0, 0); err != nil {
		return nil, solves, err
	}
	if best == nil {
		return nil, solves, fmt.Errorf("solver: no feasible threshold vector (budget %v exceeds grid)", in.Budget)
	}
	if bestLP == nil {
		// The best point shares its representative's LP, solved earlier
		// and dropped; the pooled master solves it again bit for bit.
		if bestLP, err = in.SolveFixedPals(all, pg.Pals(bestRep)); err != nil {
			return nil, solves, err
		}
		solves++
	}
	res.Policy = &MixedPolicy{Q: all, Po: bestLP.Po, Thresholds: best, Objective: bestObj}
	return res, solves, nil
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
