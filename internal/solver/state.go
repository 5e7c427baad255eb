package solver

import (
	"context"
	"fmt"
	"math"
	"sort"

	"auditgame/internal/fault"
	"auditgame/internal/game"
	"auditgame/internal/telemetry"
)

// SolveState is a persistent column-generation solver: it owns the
// column pool, the restricted master's LP basis, and the per-column
// reduced costs of the last solve, together with the structural
// fingerprint of the instance they were priced under. A fresh state
// solves cold exactly like CGGS; Refit reuses everything the model
// change did not invalidate — the pool seeds the master instead of a
// single greedy column, the basis crash-starts the simplex, and
// columns whose cached reduced cost puts them safely above the
// drift-bounded change radius stay parked outside the master until a
// final exact re-pricing pass certifies them.
//
// Invariants:
//   - pool/basis/rc are only meaningful for an instance whose
//     StructuralFingerprint matches fingerprint and thresholds match
//     thresholds; Refit falls back to a cold solve otherwise.
//   - parked columns are a screening device, never a correctness one:
//     every solve re-prices all parked columns exactly under its final
//     duals before terminating, so stale cached reduced costs can only
//     cost pivots (a column activated late), not optimality.
//   - state fields are replaced only on a successful solve; a
//     cancelled or failed solve leaves the previous state intact.
//
// A SolveState is not safe for concurrent use; callers serialize
// access (the Auditor holds its solve lock across Solve/Refit).
type SolveState struct {
	opts CGGSOptions
	// price is the greedy pricing oracle; tests point it at the batched
	// reference oracle to pin the incremental one against it.
	price pricer

	valid       bool
	fingerprint uint64
	thresholds  game.Thresholds
	pool        []game.Ordering
	rc          []float64 // last-solve reduced cost per pool column
	basis       *game.MasterBasis
	dualScale   float64

	stats CGGSStats
	warm  WarmStats
}

// WarmStats is the warm-start accounting of the most recent solve on a
// SolveState.
type WarmStats struct {
	// Warm reports whether the solve reused the previous pool and basis
	// (false for cold solves, including structural-change fallbacks).
	Warm bool `json:"warm"`
	// ColumnsReused is the number of pooled columns seeded into the
	// first restricted master.
	ColumnsReused int `json:"columns_reused"`
	// ColumnsParked is the number of pooled columns the drift screening
	// bound kept out of the master on their cached reduced costs.
	ColumnsParked int `json:"columns_parked"`
	// ColumnsReevaluated is the number of parked columns exactly
	// re-priced by the termination net.
	ColumnsReevaluated int `json:"columns_reevaluated"`
	// PricingRounds is the number of restricted-master solves.
	PricingRounds int `json:"pricing_rounds"`
}

// NewSolveState returns an empty state; the first Solve is cold.
func NewSolveState(opts CGGSOptions) *SolveState {
	return &SolveState{opts: opts, price: greedyOrderingIncremental}
}

// Stats returns the work accounting of the most recent solve.
func (st *SolveState) Stats() CGGSStats { return st.stats }

// WarmStats returns the warm-start accounting of the most recent solve.
func (st *SolveState) WarmStats() WarmStats { return st.warm }

// Columns reports the current pool size.
func (st *SolveState) Columns() int { return len(st.pool) }

// contain is the entry-point guard of a SolveState: panics become
// typed *SolveErrors, and any failure — error, panic, cancellation —
// invalidates the persisted warm state so the next solve falls back
// cold. The invalidation is deliberately conservative: the state fields
// themselves are replaced only on success, but a failure mid-solve may
// leave caches (the instance's pal tables, a partially-consumed pool
// slice) in a shape the screening bounds were never priced against, and
// a cold re-solve costs time where a poisoned warm start could cost
// correctness.
func (st *SolveState) contain(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = panicToError(op, r)
	} else if *errp != nil {
		*errp = asSolveError(op, *errp)
	}
	if *errp != nil {
		st.valid = false
	}
}

// Solve runs a cold column-generation solve (Algorithm 1) and replaces
// the persisted state with its outcome.
func (st *SolveState) Solve(ctx context.Context, in *game.Instance, b game.Thresholds) (pol *MixedPolicy, err error) {
	defer st.contain("cggs.solve", &err)
	nT := in.G.NumTypes()
	initial := st.opts.Initial
	if initial == nil {
		initial = BenefitOrdering(in.G)
	}
	if !initial.ValidPermutation(nT) {
		return nil, fmt.Errorf("solver: initial ordering %v is not a permutation of %d types", initial, nT)
	}
	st.warm = WarmStats{}
	active := []game.Ordering{initial.Clone()}
	inQ := map[string]bool{initial.Key(): true}
	return st.run(ctx, in, b, active, inQ, nil, nil)
}

// Refit re-solves against a refit instance — same game structure,
// updated count model. When the instance is structurally compatible
// with the persisted state (equal fingerprint and thresholds) the solve
// is warm: the pool seeds the master, the basis crash-starts the
// simplex, and tv — per-type total-variation distances between the old
// and new count models, as the drift detector scores them — screens
// which pooled columns must be re-priced up front. A nil tv disables
// screening (every pooled column enters the master), which is still
// warm. Structural mismatch falls back to a cold Solve.
func (st *SolveState) Refit(ctx context.Context, in *game.Instance, b game.Thresholds, tv []float64) (pol *MixedPolicy, err error) {
	defer st.contain("cggs.refit", &err)
	if !st.valid || st.fingerprint != in.StructuralFingerprint() || st.thresholds.Key() != b.Key() {
		return st.Solve(ctx, in, b)
	}

	// Screening bound: a column's reduced cost moves by at most
	// dualScale · Σ_t TV_t under the model change (pal values are
	// expectations of [0,1] quantities, so they move by at most the
	// joint total variation, itself at most the per-type sum). The
	// factor 2 absorbs the bound being evaluated under the old duals
	// while the master re-solve shifts them; the termination net makes
	// any remaining slack a performance question, not a correctness one.
	bound := math.Inf(1)
	if tv != nil {
		var tvTotal float64
		for _, d := range tv {
			if d > 0 {
				tvTotal += d
			}
		}
		bound = 2*st.dualScale*tvTotal + st.opts.withDefaults(in.G.NumTypes()).Eps
	}

	sp := telemetry.FromContext(ctx).StartSpan("cggs.warm_screen")
	var active, parked []game.Ordering
	inQ := make(map[string]bool, len(st.pool))
	for i, o := range st.pool {
		if st.rc[i] <= bound {
			active = append(active, o)
			inQ[o.Key()] = true
		} else {
			parked = append(parked, o)
		}
	}
	sp.EndValue(int64(len(parked)))
	if len(active) == 0 {
		// Cannot happen with a sane pool (support columns price at 0),
		// but never hand the master an empty column set.
		return st.Solve(ctx, in, b)
	}
	st.warm = WarmStats{Warm: true, ColumnsReused: len(active), ColumnsParked: len(parked)}
	return st.run(ctx, in, b, active, inQ, parked, st.basis)
}

// run is the column-generation loop shared by cold and warm solves:
// master solve (warm-chaining the basis between rounds), greedy column
// construction, optional exhaustive-oracle ablation, and the parked-
// column termination net. On success it replaces the persisted state.
func (st *SolveState) run(ctx context.Context, in *game.Instance, b game.Thresholds,
	active []game.Ordering, inQ map[string]bool, parked []game.Ordering, basis *game.MasterBasis) (*MixedPolicy, error) {

	nT := in.G.NumTypes()
	opts := st.opts.withDefaults(nT)
	stats := CGGSStats{}
	var oStats oracleStats
	palEvals0 := in.PalEvals()
	Q := active

	// Trace spans make the solve timeline observable end to end: one
	// "cggs.master" span (value = simplex pivots) and one "cggs.price"
	// span (value = pool size) per pricing round, plus one-shot spans
	// for the parked-column termination net. A nil trace (no caller
	// attached one) records nothing.
	tr := telemetry.FromContext(ctx)

	var res *game.LPResult
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := fault.Inject(fault.SolverPricingRound); err != nil {
			return nil, err
		}
		var err error
		sp := tr.StartSpan("cggs.master")
		res, err = in.SolveFixedWarm(Q, b, basis)
		if err != nil {
			return nil, err
		}
		sp.EndValue(int64(res.Iterations))
		basis = res.Basis
		stats.MasterSolves++
		stats.Pivots += res.Iterations
		if len(Q) >= opts.MaxColumns {
			break
		}

		// Greedy column construction (the paper's pricing oracle):
		// extend a partial ordering one type at a time, each step
		// choosing the type that minimizes the reduced cost of the
		// partial column. The incremental oracle prices each candidate
		// extension from a per-realization budget checkpoint of the
		// prefix (oracle.go); a nil column means the completion bound
		// already certifies that nothing prices below −Eps, which lands
		// in the same termination arm as a non-improving column.
		sp = tr.StartSpan("cggs.price")
		partial, rc, err := st.price(in, res, b, opts.Eps, &oStats)
		sp.EndValue(int64(len(Q)))
		if err != nil {
			return nil, err
		}
		if partial != nil && rc < -opts.Eps && !inQ[partial.Key()] {
			Q = append(Q, partial)
			inQ[partial.Key()] = true
			continue
		}

		// The greedy oracle saturated. Ablation mode: certify
		// optimality (or find a column the greedy oracle missed) by
		// pricing every ordering in one batch.
		if opts.ExhaustiveOracle && nT <= 8 {
			var all []game.Ordering
			for _, o := range game.AllOrderings(nT) {
				if !inQ[o.Key()] {
					all = append(all, o)
				}
			}
			bestRC, bestO := math.Inf(1), game.Ordering(nil)
			for j, c := range in.ReducedCosts(res, in.PalBatch(all, b)) {
				if c < bestRC {
					bestRC, bestO = c, all[j]
				}
			}
			if bestO != nil && bestRC < -opts.Eps {
				Q = append(Q, bestO)
				inQ[bestO.Key()] = true
				continue
			}
		}

		// Termination net: parked columns were screened on cached
		// reduced costs from the old model; before accepting
		// termination, re-price all of them exactly under the current
		// duals and pull in any that actually price negative. Repeated
		// passes are nearly free — the first evaluation populates the
		// new instance's pal cache.
		if len(parked) > 0 {
			st.warm.ColumnsReevaluated = len(parked)
			psp := tr.StartSpan("cggs.parked_reprice")
			rcs := in.ReducedCosts(res, in.PalBatch(parked, b))
			psp.EndValue(int64(len(parked)))
			keep := parked[:0]
			pulled := false
			for j, c := range rcs {
				o := parked[j]
				switch {
				case inQ[o.Key()]: // regenerated by the oracle meanwhile
				case c < -opts.Eps:
					Q = append(Q, o)
					inQ[o.Key()] = true
					pulled = true
				default:
					keep = append(keep, o)
				}
			}
			parked = keep
			if pulled {
				continue
			}
		}
		break
	}

	pol := &MixedPolicy{Q: Q, Po: res.Po, Thresholds: b.Clone(), Objective: res.Objective}

	// Persist: the pool is the active set plus whatever stayed parked,
	// re-priced under the final duals so the next refit screens against
	// fresh numbers. Cap the carried pool so repeated refits cannot grow
	// it without bound — worst-priced parked columns are dropped first.
	pool := append(append([]game.Ordering(nil), Q...), parked...)
	rc := in.ReducedCosts(res, in.PalBatch(pool, b))
	if maxPool := 2 * opts.MaxColumns; len(pool) > maxPool {
		idx := make([]int, len(pool))
		for i := range idx {
			idx[i] = i
		}
		// Keep the active set (first len(Q)) unconditionally; order the
		// parked tail by reduced cost.
		sort.SliceStable(idx[len(Q):], func(x, y int) bool {
			return rc[idx[len(Q)+x]] < rc[idx[len(Q)+y]]
		})
		np, nr := make([]game.Ordering, maxPool), make([]float64, maxPool)
		for i := 0; i < maxPool; i++ {
			np[i], nr[i] = pool[idx[i]], rc[idx[i]]
		}
		pool, rc = np, nr
	}
	st.pool = pool
	st.rc = rc
	st.basis = res.Basis
	st.dualScale = in.DualPricingScale(res)
	st.fingerprint = in.StructuralFingerprint()
	st.thresholds = b.Clone()
	st.valid = true

	stats.Columns = len(Q)
	stats.PalEvals = in.PalEvals() - palEvals0
	stats.PrefixHits = oStats.prefixHits
	stats.PrunedCandidates = oStats.pruned
	st.stats = stats
	st.warm.PricingRounds = stats.MasterSolves
	return pol, nil
}
