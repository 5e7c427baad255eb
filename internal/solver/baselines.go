package solver

import (
	"context"
	"fmt"
	"math/rand"

	"auditgame/internal/game"
)

// RandomOrderLoss evaluates the "Audit with random orders of alert types"
// baseline (§V-B): the auditor plays the uniform distribution over alert
// orderings while keeping the supplied thresholds (the paper borrows the
// ISHM ε=0.1 thresholds), and every attacker best-responds. When |T| ≤ 7
// the uniform mixture is exact over all |T|! orderings; beyond that,
// nSample orderings are drawn without replacement with the given seed.
func RandomOrderLoss(in *game.Instance, b game.Thresholds, nSample int, seed int64) float64 {
	nT := in.G.NumTypes()
	var Q []game.Ordering
	if nT <= 7 {
		Q = game.AllOrderings(nT)
	} else {
		Q = sampleOrderings(nT, nSample, seed)
	}
	po := make([]float64, len(Q))
	for i := range po {
		po[i] = 1 / float64(len(Q))
	}
	return in.Loss(Q, po, b)
}

// sampleOrderings draws n distinct random permutations of nT types.
func sampleOrderings(nT, n int, seed int64) []game.Ordering {
	r := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []game.Ordering
	for len(out) < n {
		o := make(game.Ordering, nT)
		for i := range o {
			o[i] = i
		}
		r.Shuffle(nT, func(i, j int) { o[i], o[j] = o[j], o[i] })
		if k := o.Key(); !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// RandomThresholdLoss evaluates the "Audit with random thresholds"
// baseline: thresholds are drawn uniformly from [0, cap_t] subject to
// Σ b_t ≥ B (paper assumption 1), the auditor then plays the optimal
// ordering mixture for those thresholds (assumption 2, via inner), and the
// reported loss is the mean over n draws.
func RandomThresholdLoss(ctx context.Context, in *game.Instance, n int, seed int64, inner Inner) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("solver: RandomThresholdLoss needs n > 0")
	}
	if inner == nil {
		inner = CGGSInner
	}
	caps := in.G.ThresholdCaps()
	var capSum float64
	for _, c := range caps {
		capSum += c
	}
	target := in.Budget
	if capSum < target {
		target = capSum
	}

	// Uniform draws almost never sum to within 1e-9 of their maximum, so
	// a target at Σ caps (a budget covering every cap) takes the caps
	// themselves; !(<) also routes a NaN target here.
	saturated := !(target < capSum-1e-9)

	r := rand.New(rand.NewSource(seed))
	var total float64
	for i := 0; i < n; i++ {
		b := make(game.Thresholds, len(caps))
		if saturated {
			copy(b, caps)
		} else if err := drawThresholds(ctx, r, caps, target, b); err != nil {
			return 0, err
		}
		pol, err := inner(ctx, in, b)
		if err != nil {
			return 0, err
		}
		total += pol.Objective
	}
	return total / float64(n), nil
}

// drawThresholds fills b with uniform draws from [0, caps[t]], redrawing
// until they sum to at least target − 1e-9.
func drawThresholds(ctx context.Context, r *rand.Rand, caps []float64, target float64, b game.Thresholds) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var sum float64
		for t, c := range caps {
			b[t] = r.Float64() * c
			sum += b[t]
		}
		if sum >= target-1e-9 {
			return nil
		}
	}
}

// GreedyBenefitLoss evaluates the "Audit based on benefit" baseline: a
// fixed pure priority order sorted by decreasing adversary benefit, with
// each type audited exhaustively (thresholds at full coverage) before the
// next is considered. Because the order is deterministic, attackers evade
// it effectively — the paper's motivating weakness of non-strategic
// prioritization.
func GreedyBenefitLoss(in *game.Instance) float64 {
	o := BenefitOrdering(in.G)
	caps := game.Thresholds(in.G.ThresholdCaps())
	return in.Loss([]game.Ordering{o}, []float64{1}, caps)
}
