package auditgame

import (
	"context"

	"auditgame/internal/game"
	"auditgame/internal/solver"
)

// MixedPolicy is a solved auditor strategy: a distribution over alert-type
// orderings plus the thresholds it was computed for.
type MixedPolicy = solver.MixedPolicy

// WarmStats is the warm-start accounting of a column-generation solve on
// a session: whether the persisted pool and basis were reused, how many
// pooled columns seeded the first master, and how many pricing rounds
// the solve took. Attached to SolveResult and RefitOutcome for
// MethodCGGS sessions.
type WarmStats = solver.WarmStats

// CGGSStats is the work accounting of one column-generation solve:
// column-pool size, master-solve and pivot counts, uncached pal
// evaluations, and the incremental pricing oracle's checkpoint-hit and
// pruning counters. Attached to SolveResult and RefitOutcome for
// MethodCGGS sessions.
type CGGSStats = solver.CGGSStats

// CGGSConfig tunes column generation (Algorithm 1 of the paper).
type CGGSConfig struct {
	// Initial seeds the column pool; nil means the benefit-greedy
	// ordering.
	Initial Ordering
	// MaxColumns caps generated columns (0 = a size-derived default).
	MaxColumns int
	// ExhaustiveOracle prices every ordering when the greedy oracle
	// stalls, making the method exact for ≤ 8 alert types.
	ExhaustiveOracle bool
}

// ISHMConfig tunes the Iterative Shrink Heuristic Method (Algorithm 2).
type ISHMConfig struct {
	// Epsilon is the shrink step size in (0,1); the paper recommends
	// ≤ 0.2 for near-optimal results. Zero defaults to 0.1.
	Epsilon float64
	// ExactInner solves each fixed-threshold LP over all orderings
	// instead of by column generation. Only sensible for few types.
	ExactInner bool
	// MaxSubset caps the shrink-subset size (0 = number of types).
	MaxSubset int
	// Workers evaluates the independent shrink candidates of each ratio
	// level concurrently. 0 means GOMAXPROCS, 1 forces serial; results
	// are identical at every setting.
	Workers int
}

// ISHMResult is the outcome of an ISHM search.
type ISHMResult = solver.ISHMResult

// BruteForceResult is the exact OAP optimum plus search accounting.
type BruteForceResult = solver.BruteForceResult

// Loss evaluates the auditor's expected loss of an arbitrary mixed policy
// against best-responding attackers.
func Loss(in *Instance, pol *MixedPolicy) float64 {
	return in.Loss(pol.Q, pol.Po, pol.Thresholds)
}

// Baseline strategies of the paper's §V-B, for comparison studies.

// BaselineRandomOrders is the loss when the auditor randomizes uniformly
// over alert-type orderings while keeping the given thresholds.
func BaselineRandomOrders(in *Instance, thresholds Thresholds, samples int, seed int64) float64 {
	return solver.RandomOrderLoss(in, thresholds, samples, seed)
}

// BaselineRandomThresholds is the mean loss over n random threshold draws,
// each played with its optimal ordering mixture.
func BaselineRandomThresholds(in *Instance, n int, seed int64) (float64, error) {
	return solver.RandomThresholdLoss(context.Background(), in, n, seed, solver.CGGSInner)
}

// BaselineGreedyBenefit is the loss of the non-strategic policy that
// audits types in fixed order of adversary benefit, exhaustively.
func BaselineGreedyBenefit(in *Instance) float64 {
	return solver.GreedyBenefitLoss(in)
}

// BenefitOrdering returns alert types sorted by decreasing maximum
// adversary benefit.
func BenefitOrdering(g *Game) Ordering { return solver.BenefitOrdering(g) }

// AllOrderings enumerates every permutation of n alert types (n ≤ 8).
func AllOrderings(n int) []Ordering { return game.AllOrderings(n) }
