package auditgame

import (
	"auditgame/internal/game"
	"auditgame/internal/telemetry"
)

// SolveTrace is the span timeline of one solve or refit — pricing
// rounds, master pivots, the install-gate verdict — as recorded by the
// solver stack. It rides
// SolveResult.Trace / RefitOutcome.Trace into the serve layer's
// solve-job DTO, so GET /v1/solve/{id} answers "where did this solve
// spend its time".
type SolveTrace = telemetry.TraceData

// TraceSpan is one entry of a SolveTrace.
type TraceSpan = telemetry.Span

// Extensions of the paper's model (§VII future work): non-zero-sum
// evaluation and boundedly rational (quantal response) adversaries. Both
// evaluate a policy of the standard form under a richer adversary model.

// QuantalConfig parameterizes the bounded-rationality evaluation; Lambda
// is the logit precision (0 = uniformly random victims, ∞ = exact best
// response).
type QuantalConfig = game.QuantalConfig

// AuditorLossNonZeroSum evaluates a solved policy when the auditor's
// exposure from an undetected violation is lossFn(entity, victim) rather
// than the adversary's utility. Adversaries still best-respond to their
// own utilities; ties break against the auditor.
func AuditorLossNonZeroSum(in *Instance, pol *MixedPolicy, lossFn func(e, v int) float64) (float64, error) {
	return in.AuditorLoss(pol.Q, pol.Po, pol.Thresholds, lossFn)
}

// QuantalLoss evaluates a solved policy against quantal-response
// adversaries: victim v chosen with probability ∝ exp(λ·Ua(v)).
func QuantalLoss(in *Instance, pol *MixedPolicy, cfg QuantalConfig) (float64, error) {
	return in.QuantalLoss(pol.Q, pol.Po, pol.Thresholds, cfg)
}

// MultiPeriodLoss evaluates a solved policy when attacks take k periods
// to complete, compounding per-period detection (1−(1−Pat)^k).
func MultiPeriodLoss(in *Instance, pol *MixedPolicy, k int) (float64, error) {
	return in.MultiPeriodLoss(pol.Q, pol.Po, pol.Thresholds, k)
}
