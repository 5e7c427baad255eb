package solver

import (
	"math"

	"auditgame/internal/game"
)

// This file is the CGGS pricing oracle (Algorithm 1's greedy column
// construction): each one-type extension is priced from a PrefixPricer
// checkpoint — O(rows) per candidate instead of re-walking the whole
// prefix — with reduced-cost candidate pruning and an early stop once no
// completion can price below −eps. The non-incremental batched oracle
// lives in oracle_test.go as the golden reference: both emit
// bitwise-identical columns.

// pricer is the signature of a greedy pricing oracle; SolveState.price
// holds the one a solve runs. It returns the column, the column's pal
// vector bit for bit (the cache takes it if the column enters the pool)
// and its reduced cost.
type pricer func(in *game.Instance, res *game.LPResult, b game.Thresholds, eps float64, st *oracleStats) (game.Ordering, []float64, float64, error)

// oracleStats carries the incremental oracle's work accounting into
// CGGSStats.
type oracleStats struct {
	prefixHits int // candidate extensions priced from a prefix checkpoint
	pruned     int // candidate extensions discarded on bounds alone
}

// greedyOrderingIncremental builds the greedy pricing-oracle column
// incrementally. It returns the column, its pal vector as the pricer
// composed it and its exact reduced cost — bitwise-identical to what
// the batched reference oracle produces — or a nil ordering when the
// completion bound proves no extension of the current prefix (greedy or
// otherwise) can price below −eps, in which case the caller takes the
// same termination path a non-improving column would have triggered.
func greedyOrderingIncremental(in *game.Instance, res *game.LPResult, b game.Thresholds, eps float64, st *oracleStats) (game.Ordering, []float64, float64, error) {
	nT := in.G.NumTypes()
	pp, err := game.NewPrefixPricer(in, b)
	if err != nil {
		return nil, nil, 0, err
	}
	defer pp.Release()
	W := in.DualTypeWeights(res)
	ub := make([]float64, nT)
	for t := range ub {
		ub[t] = math.Inf(1)
	}
	used := make([]bool, nT)
	cands := make([]int, 0, nT)
	var rc float64
	for step := 0; step < nT; step++ {
		if in.CompletionLowerBound(res, pp, W, ub) >= -eps {
			return nil, nil, 0, nil
		}
		cands = cands[:0]
		for t := 0; t < nT; t++ {
			if !used[t] {
				cands = append(cands, t)
			}
		}
		out := in.ExtendReducedCosts(res, pp, cands, W, ub)
		st.prefixHits += out.Evaluated
		st.pruned += out.Pruned
		pp.Advance(out.BestType, out.BestDelta)
		used[out.BestType] = true
		rc = out.BestRC
	}
	return pp.Prefix().Clone(), pp.Pal(), rc, nil
}
