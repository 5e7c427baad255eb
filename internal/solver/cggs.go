// Package solver implements the search algorithms of the paper: the
// brute-force optimum used as ground truth in §IV, Column Generation
// Greedy Search (CGGS, Algorithm 1), the Iterative Shrink Heuristic Method
// (ISHM, Algorithm 2), their composition, and the three baseline audit
// strategies of §V-B.
package solver

import (
	"context"
	"sort"

	"auditgame/internal/game"
)

// MixedPolicy is a solved auditor strategy: a distribution over orderings
// plus the threshold vector it was computed for.
type MixedPolicy struct {
	Q          []game.Ordering
	Po         []float64
	Thresholds game.Thresholds
	// Objective is the auditor's expected loss at this policy.
	Objective float64
}

// Support returns the orderings with non-negligible probability, ordered
// by decreasing probability.
func (m *MixedPolicy) Support() ([]game.Ordering, []float64) {
	type pair struct {
		o game.Ordering
		p float64
	}
	var ps []pair
	for i, p := range m.Po {
		if p > 1e-9 {
			ps = append(ps, pair{m.Q[i], p})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].p != ps[j].p {
			return ps[i].p > ps[j].p
		}
		return ps[i].o.Key() < ps[j].o.Key()
	})
	os := make([]game.Ordering, len(ps))
	probs := make([]float64, len(ps))
	for i, p := range ps {
		os[i] = p.o
		probs[i] = p.p
	}
	return os, probs
}

// CGGSOptions tunes column generation.
type CGGSOptions struct {
	// Initial seeds the column pool. Nil means the benefit-greedy
	// ordering (types sorted by decreasing maximum adversary benefit),
	// a sensible warm start.
	Initial game.Ordering
	// MaxColumns caps generated columns. Zero means 20·|T| + 50.
	MaxColumns int
	// Eps is the reduced-cost tolerance. Zero means 1e-7.
	Eps float64
	// ExhaustiveOracle prices every ordering whenever the greedy column
	// fails to improve, turning CGGS into an exact method for |T| ≤ 8.
	// The paper's Algorithm 1 is greedy-only (the default); this switch
	// exists for the column-oracle ablation.
	ExhaustiveOracle bool
}

func (o CGGSOptions) withDefaults(numTypes int) CGGSOptions {
	if o.MaxColumns == 0 {
		o.MaxColumns = 20*numTypes + 50
	}
	if o.Eps == 0 {
		o.Eps = 1e-7
	}
	return o
}

// CGGSStats is the work accounting of one column-generation solve —
// the quantities the scaled-workload benchmarks sweep to locate where
// column generation saturates.
type CGGSStats struct {
	// Columns is the size of the final ordering pool (including the
	// warm-start column).
	Columns int `json:"columns"`
	// MasterSolves counts restricted master LP solves, a final one that
	// stopped short of optimal included.
	MasterSolves int `json:"master_solves"`
	// Pivots is the cumulative simplex pivot count across all master
	// solves.
	Pivots int `json:"pivots"`
	// PalEvals is the increase in the instance's uncached
	// detection-probability evaluations over the solve. On an instance
	// shared with concurrent solvers this attributes their evaluations
	// too; benchmarks use a fresh instance per solve.
	PalEvals int `json:"pal_evals"`
	// PrefixHits counts candidate extensions the incremental oracle
	// priced without a full prefix re-walk: those the short-prefix delta
	// memo answered, at O(1) each, and those evaluated from the prefix
	// checkpoint, at one O(rows) appended-position pass each. It counts
	// priced candidates, not kernel work.
	PrefixHits int `json:"prefix_hits"`
	// PrunedCandidates counts candidate extensions discarded on
	// reduced-cost bounds alone, without touching the realization
	// matrix.
	PrunedCandidates int `json:"pruned_candidates"`
}

// CGGS solves the fixed-threshold LP by column generation (Algorithm 1).
// Starting from a single ordering it alternates between solving the
// restricted master LP and greedily constructing a new ordering that
// minimizes reduced cost, appending one alert type at a time; it stops
// when the greedy column no longer prices negatively.
//
// The context is checked once per generated column (master solve +
// greedy pricing round), so cancellation latency is bounded by one
// pricing round.
func CGGS(ctx context.Context, in *game.Instance, b game.Thresholds, opts CGGSOptions) (*MixedPolicy, error) {
	pol, _, err := CGGSWithStats(ctx, in, b, opts)
	return pol, err
}

// CGGSWithStats is CGGS with the solve's work accounting. It runs on a
// throwaway SolveState; callers that re-solve against drifting models
// keep the SolveState instead and use its Refit for warm starts.
func CGGSWithStats(ctx context.Context, in *game.Instance, b game.Thresholds, opts CGGSOptions) (*MixedPolicy, CGGSStats, error) {
	st := NewSolveState(opts)
	pol, err := st.Solve(ctx, in, b)
	return pol, st.Stats(), err
}

// Exact solves the fixed-threshold LP over every ordering of the alert
// types. It is exponential in |T| and refuses |T| > 8; use CGGS beyond
// that. This is the "solving the linear program to optimality" inner
// solver used for Tables III, IV and VI (γ¹). The context is checked on
// entry; the single SolveFixed over all orderings is not interruptible.
//
// The pal vectors go through the cache: ISHM, the iterative caller,
// revisits threshold vectors across shrink rounds.
func Exact(ctx context.Context, in *game.Instance, b game.Thresholds) (pol *MixedPolicy, err error) {
	defer contain("exact", &err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	all := game.AllOrderings(in.G.NumTypes())
	res, err := in.SolveFixed(all, b)
	if err != nil {
		return nil, err
	}
	return &MixedPolicy{Q: all, Po: res.Po, Thresholds: b.Clone(), Objective: res.Objective}, nil
}

// Inner is a fixed-threshold solver: it returns the auditor's optimal (or
// approximately optimal) mixed strategy for the given thresholds. ISHM is
// parameterized over it — Exact reproduces Table IV, CGGS reproduces
// Table V. Implementations must return promptly with ctx.Err() once the
// context is done.
type Inner func(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error)

// ExactInner adapts Exact to the Inner signature.
func ExactInner(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error) {
	return Exact(ctx, in, b)
}

// CGGSInner adapts CGGS with default options to the Inner signature.
func CGGSInner(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error) {
	return CGGS(ctx, in, b, CGGSOptions{})
}

// BenefitOrdering returns alert types sorted by decreasing maximum
// adversary benefit — both the CGGS warm start and the "Audit based on
// benefit" baseline's fixed priority order.
func BenefitOrdering(g *game.Game) game.Ordering {
	nT := g.NumTypes()
	maxBenefit := make([]float64, nT)
	for e := range g.Attacks {
		for _, a := range g.Attacks[e] {
			for t, p := range a.TypeProbs {
				if p > 0 && a.Benefit > maxBenefit[t] {
					maxBenefit[t] = a.Benefit
				}
			}
		}
	}
	o := make(game.Ordering, nT)
	for i := range o {
		o[i] = i
	}
	sort.SliceStable(o, func(i, j int) bool { return maxBenefit[o[i]] > maxBenefit[o[j]] })
	return o
}
