// Package auditgame is a game-theoretic database-audit prioritization
// library, reproducing "Get Your Workload in Order: Game Theoretic
// Prioritization of Database Auditing" (Yan et al., ICDE 2018).
//
// A database deployment raises far more alerts than its auditors can
// inspect. This package models the interaction between the auditor and
// strategic would-be violators as a zero-sum Stackelberg game: the auditor
// commits to a randomized priority ordering over alert types plus
// per-type budget thresholds, and each potential attacker then picks the
// victim — or refrains — that maximizes their expected utility. Solving
// the game yields an audit policy that makes the best use of a limited
// budget against adversaries who know the policy.
//
// The typical flow is a deployment session: bind a workload, budget,
// and solver once, then solve (cancellable), select daily, and
// hot-reload at will:
//
//	a, _ := auditgame.NewAuditor(auditgame.AuditorConfig{
//		Workload: "syna", Budget: 10,
//		ISHM: auditgame.ISHMConfig{Epsilon: 0.1},
//	})
//	pol, _ := a.Solve(ctx)         // deployable artifact, installed
//	pol.Save(os.Stdout)
//	sel, _ := a.Select(counts)     // each period; safe for concurrent use
//
// `auditsim serve` puts the same session behind HTTP. With a drift
// Tracker attached (AttachTracker), the session watches the observed
// counts and re-solves itself when the live workload drifts away from
// the model the policy assumes (see examples/online-refit). The
// session is the one way to solve: bind a prebuilt Instance for batch
// experiments and read the method's accounting from SolveDetailed.
//
// Everything — the simplex LP solver, column generation, the ISHM
// threshold search, the TDMT rule engine, and the workload simulators —
// is implemented on the Go standard library.
package auditgame

import (
	"auditgame/internal/dist"
	"auditgame/internal/game"
	"auditgame/internal/sample"
)

// Core model types, re-exported from the internal game package.
type (
	// Game is a complete audit-game instance: alert types, potential
	// adversaries, victims, and the consequences of every potential
	// attack.
	Game = game.Game
	// AlertType is one alert category with its audit cost and benign
	// count distribution.
	AlertType = game.AlertType
	// Entity is a potential adversary with its attack probability p_e.
	Entity = game.Entity
	// Attack describes the alert behaviour and economics of one
	// potential event ⟨entity, victim⟩.
	Attack = game.Attack
	// Ordering is a priority order over alert types.
	Ordering = game.Ordering
	// Thresholds is the per-type audit budget vector.
	Thresholds = game.Thresholds
	// Instance binds a Game to a budget and a realization source; all
	// solvers run on an Instance.
	Instance = game.Instance
	// Distribution is a discrete distribution over alert counts.
	Distribution = dist.Distribution
)

// SynA returns the paper's controlled synthetic dataset (Table II): five
// attackers, eight records, four alert types.
func SynA() *Game { return game.SynA() }

// DeterministicAttack builds an Attack raising alert type t with
// probability 1 (t < 0 for a benign access).
func DeterministicAttack(numTypes, t int, benefit, penalty, cost float64) Attack {
	return game.DeterministicAttack(numTypes, t, benefit, penalty, cost)
}

// SourceOptions selects how expectations over alert-count realizations are
// computed.
type SourceOptions struct {
	// EnumerationLimit bounds exact joint enumeration; above it a
	// Monte-Carlo sample bank is used. Zero means 200 000.
	EnumerationLimit int
	// BankSize is the Monte-Carlo bank size when enumeration is
	// infeasible. Zero means 1000.
	BankSize int
	// Seed drives the bank. The bank is frozen (common random
	// numbers), so evaluations are deterministic and comparable.
	Seed int64
}

// NewInstance validates the game and prepares an evaluation instance at
// the given audit budget.
func NewInstance(g *Game, budget float64, opts SourceOptions) (*Instance, error) {
	if opts.EnumerationLimit == 0 {
		opts.EnumerationLimit = sample.DefaultEnumerationLimit
	}
	if opts.BankSize == 0 {
		opts.BankSize = 1000
	}
	src := sample.Auto(g.Dists(), opts.EnumerationLimit, opts.BankSize, opts.Seed)
	return game.NewInstance(g, budget, src)
}

// Alert-count distribution constructors.

// GaussianCounts is a Gaussian discretized to integer counts, truncated to
// the given two-sided coverage (the paper uses 0.995) and clipped at zero.
func GaussianCounts(mean, std, coverage float64) Distribution {
	return dist.NewGaussian(mean, std, coverage)
}

// EmpiricalCounts fits the empirical distribution of observed per-period
// counts, e.g. daily alert totals from an audit log.
func EmpiricalCounts(counts []int) Distribution { return dist.NewEmpirical(counts) }

// PoissonCounts is a Poisson(λ) truncated at the given coverage.
func PoissonCounts(lambda, coverage float64) Distribution {
	return dist.NewPoisson(lambda, coverage)
}

// ConstantCounts is the point mass at n.
func ConstantCounts(n int) Distribution { return dist.NewPoint(n) }

// StreamEstimator maintains a sliding-window online model of one alert
// type's per-period count, for deployments that refit their workload
// model as audit days accumulate.
type StreamEstimator = dist.StreamEstimator

// NewStreamEstimator creates an estimator over the last window periods.
func NewStreamEstimator(window int) (*StreamEstimator, error) {
	return dist.NewStreamEstimator(window)
}
