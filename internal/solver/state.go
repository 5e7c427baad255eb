package solver

import (
	"context"
	"fmt"
	"math"

	"auditgame/internal/fault"
	"auditgame/internal/game"
	"auditgame/internal/telemetry"
)

// SolveState is a persistent column-generation solver: it owns the
// column pool and the restricted master's LP basis of the last solve,
// together with the structural fingerprint and thresholds of the
// instance they were priced under. A fresh state solves cold exactly
// like CGGS; Refit seeds the first master with the whole pool instead
// of a single column and crash-starts the simplex from the basis.
//
// Invariants:
//   - pool and basis are only meaningful for an instance whose
//     StructuralFingerprint matches fingerprint and thresholds match
//     thresholds; Refit falls back to a cold solve otherwise.
//   - the pool is a copy of the last solve's final column set, so the
//     column cap bounds it across any number of refits.
//   - state fields are replaced only on a successful solve; a
//     cancelled or failed solve leaves the previous state intact. The
//     accounting (Stats, WarmStats) always describes the most recent
//     solve, failed ones included.
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
	basis       *game.MasterBasis

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
	// ColumnsParked is always 0: a warm refit seeds every pooled
	// column. It stays for the benchmark harness that reads it.
	ColumnsParked int `json:"columns_parked"`
	// PricingRounds is the number of restricted-master solves.
	PricingRounds int `json:"pricing_rounds"`
}

// NewSolveState returns an empty state; the first Solve is cold.
func NewSolveState(opts CGGSOptions) *SolveState {
	return &SolveState{opts: opts, price: greedyOrderingIncremental}
}

// Stats returns the work accounting of the most recent solve, also of
// one that failed.
func (st *SolveState) Stats() CGGSStats { return st.stats }

// WarmStats returns the warm-start accounting of the most recent solve,
// also of one that failed.
func (st *SolveState) WarmStats() WarmStats { return st.warm }

// Columns reports the current pool size.
func (st *SolveState) Columns() int { return len(st.pool) }

// contain is the entry-point guard of a SolveState: panics become
// typed *SolveErrors, and any failure — error, panic, cancellation —
// invalidates the persisted warm state so the next solve falls back
// cold. The invalidation is deliberately conservative: the state fields
// themselves are replaced only on success, but a failure mid-solve may
// leave caches (the instance's pal tables) in an unknown shape, and a
// cold re-solve costs time where a poisoned warm start could cost
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
	st.warm, st.stats = WarmStats{}, CGGSStats{}
	if !initial.ValidPermutation(nT) {
		return nil, fmt.Errorf("solver: initial ordering %v is not a permutation of %d types", initial, nT)
	}
	return st.run(ctx, in, b, []game.Ordering{initial.Clone()}, nil, true)
}

// Refit re-solves against a refit instance — same game structure,
// updated count model. When the instance is structurally compatible
// with the persisted state (equal fingerprint and thresholds) the solve
// is warm: the whole pool, in pool order, seeds the first master and
// the basis crash-starts the simplex. Structural mismatch falls back to
// a cold Solve. The last argument is unused; it stays for the benchmark
// harness that passes it.
func (st *SolveState) Refit(ctx context.Context, in *game.Instance, b game.Thresholds, _ []float64) (pol *MixedPolicy, err error) {
	defer st.contain("cggs.refit", &err)
	if !st.valid || st.fingerprint != in.StructuralFingerprint() || st.thresholds.Key() != b.Key() {
		return st.Solve(ctx, in, b)
	}
	st.warm = WarmStats{Warm: true, ColumnsReused: len(st.pool)}
	return st.run(ctx, in, b, append([]game.Ordering(nil), st.pool...), st.basis, false)
}

// run is the column-generation loop shared by cold and warm solves:
// master solve over Q (warm-chaining the basis between rounds), greedy
// column construction, and the optional exhaustive-oracle ablation. On
// success it replaces the persisted state. Every greedy column enters
// the pool with the pal vector its pricer composed, and a cold solve
// composes its initial column the same way, where the first master
// would have evaluated it (DESIGN.md P6), so no master walks a column.
// A warm refit's pool goes through the first master's PalBatch.
func (st *SolveState) run(ctx context.Context, in *game.Instance, b game.Thresholds,
	Q []game.Ordering, basis *game.MasterBasis, cold bool) (*MixedPolicy, error) {

	nT := in.G.NumTypes()
	opts := st.opts.withDefaults(nT)
	stats := CGGSStats{}
	var oStats oracleStats
	palEvals0 := in.PalEvals()
	// Every exit, failed or not, records this solve's own accounting,
	// so a solve that stops on an error still shows the work it did.
	defer func() {
		stats.Columns = len(Q)
		stats.PalEvals = in.PalEvals() - palEvals0
		stats.PrefixHits = oStats.prefixHits
		stats.PrunedCandidates = oStats.pruned
		st.stats = stats
		st.warm.PricingRounds = stats.MasterSolves
	}()
	inQ := make(map[string]bool, len(Q))
	for _, o := range Q {
		inQ[o.Key()] = true
	}

	// Trace spans make the solve timeline observable end to end: one
	// "cggs.master" span (value = simplex pivots) and one "cggs.price"
	// span (value = pool size) per pricing round. A nil trace (no caller
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
		if cold {
			if _, err := in.ComposePal(Q[0], b); err != nil {
				return nil, err
			}
			cold = false
		}
		res, err = in.SolveFixedWarm(Q, b, basis)
		if res != nil { // also a master that stopped short of optimal
			sp.EndValue(int64(res.Iterations))
			stats.MasterSolves++
			stats.Pivots += res.Iterations
		}
		if err != nil {
			return nil, err
		}
		basis = res.Basis
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
		partial, pal, rc, err := st.price(in, res, b, opts.Eps, &oStats)
		sp.EndValue(int64(len(Q)))
		if err != nil {
			return nil, err
		}
		if partial != nil && rc < -opts.Eps && !inQ[partial.Key()] {
			Q = append(Q, partial)
			inQ[partial.Key()] = true
			in.CachePal(partial, b, pal)
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

		break
	}

	pol := &MixedPolicy{Q: Q, Po: res.Po, Thresholds: b.Clone(), Objective: res.Objective}
	st.pool = append([]game.Ordering(nil), Q...)
	st.basis = res.Basis
	st.fingerprint = in.StructuralFingerprint()
	st.thresholds = b.Clone()
	st.valid = true
	return pol, nil
}
