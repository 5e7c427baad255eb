package auditgame

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"auditgame/internal/fault"
	"auditgame/internal/refit"
	"auditgame/internal/telemetry"
)

// Streaming refit: the online answer to the paper's known-F_t
// assumption (§II-A). A Tracker watches the live alert counts through
// sliding windows; when the workload drifts away from the model the
// installed policy was solved against, the Auditor re-solves on the
// window snapshot and — if the refit policy moves the loss enough —
// installs it through the same atomic swap every other install uses.

// Tracker tracks a deployment's workload: one sliding-window estimator
// per alert type, a pluggable drift detector, and hysteresis. Safe for
// concurrent use.
type Tracker = refit.Tracker

// TrackerConfig tunes a Tracker (window, cadence, thresholds via a
// custom detector, hysteresis). The zero value picks defaults.
type TrackerConfig = refit.Config

// DriftDecision is the outcome of one observed period: whether drift
// fired, and why or why not.
type DriftDecision = refit.Decision

// DriftState is a Tracker's serializable state, as reported by the
// policy server's GET /v1/drift.
type DriftState = refit.State

// DriftDetector is the pluggable drift-decision interface; DriftVerdict,
// DriftTypeWindow, and DriftScore are its vocabulary. The default is
// the two-stage distance detector (z-test fast path, total-variation
// decision; see refit.NewDistanceDetector).
type (
	DriftDetector   = refit.Detector
	DriftVerdict    = refit.Verdict
	DriftTypeWindow = refit.TypeWindow
	DriftScore      = refit.TypeScore
)

// DistanceDetector is the default two-stage drift detector: a
// mean/variance z-test fast path that escalates to a total-variation /
// KL comparison of the installed model's PMFs against the window
// snapshot. Adjust its exported thresholds before handing it to
// TrackerConfig.Detector.
type DistanceDetector = refit.DistanceDetector

// NewDistanceDetector returns a DistanceDetector with the default
// thresholds (z 3, variance ratio 4, total variation 0.2).
func NewDistanceDetector() *DistanceDetector { return refit.NewDistanceDetector() }

// NewTracker creates a drift tracker over numTypes alert types.
func NewTracker(numTypes int, cfg TrackerConfig) (*Tracker, error) {
	return refit.New(numTypes, cfg)
}

// ErrNoTracker is returned by Observe/Refit when no tracker is attached
// to the session.
var ErrNoTracker = errors.New("auditgame: no tracker attached; call AttachTracker first")

// ErrRefitInFlight is returned by Refit when another refit is already
// solving on this session; drift firings are single-flighted, not
// queued.
var ErrRefitInFlight = errors.New("auditgame: a refit is already in flight")

// ErrBreakerOpen is returned by RefitWithRetry while the refit circuit
// breaker is open: enough consecutive refit failures accumulated that the
// session parks refitting for the breaker cooldown and keeps serving the
// incumbent policy.
var ErrBreakerOpen = errors.New("auditgame: refit circuit breaker is open")

// RetryPolicy bounds the retry loop RefitWithRetry runs around transient
// refit failures: exponential backoff with jitter, capped attempts.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (first try included).
	// Zero means 3; 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Zero means 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 5s.
	MaxDelay time.Duration
	// JitterSeed seeds the jitter stream (each delay is scaled by a
	// uniform factor in [0.5, 1.5)) so tests can pin the schedule. Zero
	// seeds from the session's first use.
	JitterSeed int64
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts == 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay == 0 {
		r.BaseDelay = 100 * time.Millisecond
	}
	if r.MaxDelay == 0 {
		r.MaxDelay = 5 * time.Second
	}
	return r
}

// BreakerPolicy tunes the refit circuit breaker: after Threshold
// consecutive failed refits (cancellations and deadline expiries do not
// count) the breaker opens for Cooldown, during which RefitWithRetry
// fails fast with ErrBreakerOpen. The first call after the cooldown is
// the half-open probe: success closes the breaker, failure re-opens it.
type BreakerPolicy struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	// Zero means 5; negative disables the breaker.
	Threshold int
	// Cooldown is how long the breaker stays open. Zero means 5m.
	Cooldown time.Duration
}

func (b BreakerPolicy) withDefaults() BreakerPolicy {
	if b.Threshold == 0 {
		b.Threshold = 5
	}
	if b.Cooldown == 0 {
		b.Cooldown = 5 * time.Minute
	}
	return b
}

// RefitHealth is the observable state of the session's refit machinery —
// what /healthz and /v1/drift surface so an operator can tell a parked
// (degraded) tracker from a healthy one.
type RefitHealth struct {
	// BreakerOpen reports whether the circuit breaker is currently
	// rejecting refits; OpenUntil is when the next half-open probe is
	// allowed.
	BreakerOpen bool      `json:"breaker_open"`
	OpenUntil   time.Time `json:"open_until,omitzero"`
	// ConsecutiveFailures counts refit failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastFailure describes the most recent refit failure;
	// LastFailureKind is its taxonomy classification
	// (panic/timeout/cancelled/transient/internal).
	LastFailure     string      `json:"last_failure,omitempty"`
	LastFailureKind FailureKind `json:"last_failure_kind,omitempty"`
}

// RefitOptions tunes the session's drift-triggered refit behaviour.
// The session never launches a refit itself: whoever calls Observe
// calls Refit or RefitWithRetry when drift fires.
type RefitOptions struct {
	// MinLossDelta is the second-stage "policy-moved-enough" gate: the
	// refit policy must improve on the currently-installed policy —
	// both evaluated under the refit model — by more than this relative
	// margin to be installed. Zero requires any strict improvement;
	// negative installs unconditionally.
	MinLossDelta float64
	// Retry bounds RefitWithRetry's backoff loop around transient
	// failures; the zero value takes the defaults.
	Retry RetryPolicy
	// Breaker tunes the refit circuit breaker; the zero value takes the
	// defaults.
	Breaker BreakerPolicy
}

// RefitOutcome.Outcome values.
const (
	// RefitInstalled: the refit policy passed the install gate and is
	// now the session's current policy.
	RefitInstalled = "installed"
	// RefitGated: the solve succeeded but the policy did not move enough
	// to clear the MinLossDelta gate; the incumbent keeps serving. This
	// is a healthy outcome, distinct from a solve failure (which is an
	// error with a FailureKind, never an outcome).
	RefitGated = "gated"
)

// RefitOutcome reports one drift-triggered re-solve that completed. A
// refit whose solve failed never produces an outcome — it returns an
// error carrying a FailureKind instead, so "gate rejected" and "solve
// failed" can never be conflated.
type RefitOutcome struct {
	// Outcome is RefitInstalled or RefitGated.
	Outcome string `json:"outcome"`
	// Installed says the refit policy passed the gate and is now the
	// session's current policy (Outcome == RefitInstalled).
	Installed bool `json:"installed"`
	// PolicyVersion is the version the refit policy was installed as
	// (0 when not installed).
	PolicyVersion uint64 `json:"policy_version,omitempty"`
	// OldLoss is the previously-installed policy's expected loss
	// evaluated under the refit (window-snapshot) model; NewLoss is the
	// refit policy's. Comparing both under the same fresh model is what
	// makes the gate meaningful.
	OldLoss float64 `json:"old_loss"`
	NewLoss float64 `json:"new_loss"`
	// Improvement is the relative loss improvement (OldLoss − NewLoss)
	// / |OldLoss| the gate tested.
	Improvement float64 `json:"improvement"`
	// Reason says why the policy was or was not installed.
	Reason string `json:"reason"`
	// Warm carries the warm-start accounting of the refit solve for
	// MethodCGGS sessions (nil for other methods): whether the session's
	// persisted column pool and basis were reused, how many columns
	// seeded the first master, and the pricing-round count.
	Warm *WarmStats `json:"warm_stats,omitempty"`
	// Stats is the refit solve's column-generation work accounting
	// (MethodCGGS sessions; nil otherwise): columns, master solves,
	// pivots, pal evaluations, and the incremental pricing oracle's
	// checkpoint-hit and pruning counters.
	Stats *CGGSStats `json:"solve_stats,omitempty"`
	// Trace is the refit's span timeline — snapshot, model rebuild,
	// solve phases, gate decision — as recorded by the solver stack.
	Trace *SolveTrace `json:"trace,omitempty"`
}

// trackerBinding pairs the attached tracker with its options in one
// atomic cell.
type trackerBinding struct {
	tr   *Tracker
	opts RefitOptions
}

// AttachTracker binds a drift tracker to the session and seeds its
// reference model from the bound game's count distributions. The game
// is built if it has not been yet, so a policy-only session (nothing to
// re-solve) is rejected here rather than at the first drift firing.
func (a *Auditor) AttachTracker(tr *Tracker, opts RefitOptions) error {
	if tr == nil {
		return fmt.Errorf("auditgame: AttachTracker needs a tracker")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureGame(); err != nil {
		return fmt.Errorf("auditgame: AttachTracker: %w", err)
	}
	if tr.NumTypes() != a.game.NumTypes() {
		return fmt.Errorf("auditgame: tracker tracks %d alert types but the bound game has %d",
			tr.NumTypes(), a.game.NumTypes())
	}
	// Reject a duplicate attach before touching the tracker, so a
	// failed call never disturbs the live tracker's reference model or
	// cooldown; and seed the reference model before publishing the
	// binding, so a seeding failure leaves the session cleanly detached
	// and the call retryable. Writers are serialized by a.mu, making
	// the check-then-swap safe.
	if a.refitBinding.Load() != nil {
		return fmt.Errorf("auditgame: a tracker is already attached to this session")
	}
	_, version := a.CurrentPolicy()
	if err := tr.SetInstalled(a.game.Dists(), version); err != nil {
		return err
	}
	if !a.refitBinding.CompareAndSwap(nil, &trackerBinding{tr: tr, opts: opts}) {
		return fmt.Errorf("auditgame: a tracker is already attached to this session")
	}
	return nil
}

// Tracker returns the attached drift tracker, or nil.
func (a *Auditor) Tracker() *Tracker {
	if b := a.refitBinding.Load(); b != nil {
		return b.tr
	}
	return nil
}

// Observe feeds one audit period's realized per-type counts to the
// attached tracker and returns its decision; when drift fires, the
// caller decides whether to Refit. An error means the counts were
// rejected and nothing was recorded. Safe for concurrent use and never
// blocked by an in-flight solve — serving layers call it on the ingest
// path.
func (a *Auditor) Observe(counts []int) (DriftDecision, error) {
	b := a.refitBinding.Load()
	if b == nil {
		return DriftDecision{}, ErrNoTracker
	}
	dec, err := b.tr.Observe(counts)
	if err != nil {
		return dec, err
	}
	if m := a.metrics.Load(); m != nil {
		m.Observes.Inc()
	}
	return dec, nil
}

// Refit re-solves the session against the tracker's current window
// snapshot and applies the two-stage install gate: the solve itself ran
// because the model drifted (stage one, the tracker), and the result is
// installed only if the policy moved enough to matter (stage two) —
// the refit policy must beat the currently-installed one, both
// evaluated under the refit model, by more than RefitOptions.
// MinLossDelta. An installed refit swaps the session's game, instance,
// and policy atomically (Select never blocks, versions stay monotonic)
// and resets the tracker's reference model, starting its cooldown.
//
// The solve honours ctx like Solve does: cancellation lands within one
// pricing round and installs nothing.
func (a *Auditor) Refit(ctx context.Context) (*RefitOutcome, error) {
	b := a.refitBinding.Load()
	if b == nil {
		return nil, ErrNoTracker
	}
	if !a.refitting.CompareAndSwap(false, true) {
		return nil, ErrRefitInFlight
	}
	defer a.refitting.Store(false)

	// The refit records the same span trace a solve does — snapshot,
	// model rebuild, solve, gate — reusing a caller-attached trace so
	// the serve layer's refit jobs get one coherent timeline.
	tr := telemetry.FromContext(ctx)
	if tr == nil {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
	}

	sp := tr.StartSpan("refit.snapshot")
	specs, err := b.tr.Snapshot()
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := fault.Inject(fault.RefitSnapshot); err != nil {
		// Injected here — after the snapshot, before any state is
		// touched — this models the transient refit failures the retry
		// loop exists for.
		return nil, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureInstance(); err != nil {
		return nil, err
	}
	if len(specs) != len(a.game.Types) {
		return nil, fmt.Errorf("auditgame: refit snapshot has %d types, game has %d", len(specs), len(a.game.Types))
	}

	sp = tr.StartSpan("refit.model")
	// The refit game is the bound game with the count model replaced by
	// the window snapshot; everything strategic (entities, attacks,
	// costs) is unchanged.
	ng := *a.game
	ng.Types = append([]AlertType(nil), a.game.Types...)
	newDists := make([]Distribution, len(specs))
	for i, s := range specs {
		// Built directly, not via dist.Shared: snapshot specs carry
		// fitted float statistics that essentially never repeat, so
		// interning them would grow the process-global table cache on
		// every refit for the life of a serving process.
		d, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("auditgame: refit model for type %d: %w", i, err)
		}
		ng.Types[i].Dist = d
		newDists[i] = d
	}
	nin, err := NewInstance(&ng, a.budget, a.cfg.Source)
	sp.End()
	if err != nil {
		return nil, err
	}

	thresholds := a.cfg.Thresholds
	if thresholds == nil {
		thresholds = ng.ThresholdCaps()
	}
	// Warm-start the re-solve from the session's persisted solve state
	// (MethodCGGS; a no-op for the other methods).
	res, err := a.solveOn(ctx, nin, thresholds, true)
	if err != nil {
		return nil, err
	}

	// Both sides of the gate go through the same full best-response
	// evaluation: a truncated column-generation solve's objective is a
	// restricted-master bound that can understate the candidate's true
	// loss, so comparing it against the incumbent's Loss would bias the
	// gate toward installing.
	sp = tr.StartSpan("refit.gate")
	out := &RefitOutcome{NewLoss: Loss(nin, res.Mixed), Warm: res.Warm, Stats: res.Stats}
	install := true
	if cur, _ := a.CurrentPolicy(); cur != nil {
		out.OldLoss = Loss(nin, mixedFromPolicy(cur))
		out.Improvement = (out.OldLoss - out.NewLoss) / math.Max(math.Abs(out.OldLoss), 1e-9)
		if gate := b.opts.MinLossDelta; gate >= 0 && out.Improvement <= gate {
			install = false
			out.Outcome = RefitGated
			out.Reason = fmt.Sprintf("policy moved too little: relative improvement %.4f ≤ gate %.4f", out.Improvement, gate)
		}
	}
	gateVerdict := int64(0)
	if install {
		gateVerdict = 1
	}
	sp.EndValue(gateVerdict)
	if install {
		p := PolicyFrom(&ng, a.budget, res.Mixed)
		a.game = &ng
		a.in = nin
		a.seed = ng.ThresholdCaps()
		a.built.Store(&ng)
		// install also resets the tracker's reference to newDists under
		// the same critical section, so a concurrent hot reload can
		// never interleave between the policy swap and the reference
		// reset.
		isp := tr.StartSpan("install")
		v := a.install(p, newDists)
		isp.EndValue(int64(v))
		out.Outcome = RefitInstalled
		out.Installed = true
		out.PolicyVersion = v
		out.Reason = fmt.Sprintf("installed as version %d: loss %.4f → %.4f under the refit model", v, out.OldLoss, out.NewLoss)
	}
	out.Trace = tr.Data()
	return out, nil
}

// RefitWithRetry is Refit wrapped in the session's failure-containment
// machinery: transient failures (injected chaos, recoverable numerical
// trouble) are retried with exponential backoff and jitter per
// RefitOptions.Retry, and consecutive failures are counted against the
// circuit breaker per RefitOptions.Breaker. While the breaker is open the
// call fails fast with ErrBreakerOpen — the tracker is parked in a
// degraded state and the incumbent policy keeps serving; the first call
// after the cooldown probes half-open.
//
// Cancellations and deadline expiries are the caller's doing: they are
// returned immediately, retried never, and not counted against the
// breaker. ErrRefitInFlight is likewise returned as-is (another refit is
// already making progress).
func (a *Auditor) RefitWithRetry(ctx context.Context) (*RefitOutcome, error) {
	b := a.refitBinding.Load()
	if b == nil {
		return nil, ErrNoTracker
	}
	rp := b.opts.Retry.withDefaults()
	bp := b.opts.Breaker.withDefaults()

	if err := a.breakerAllow(bp); err != nil {
		return nil, err
	}
	for attempt := 1; ; attempt++ {
		out, err := a.Refit(ctx)
		if err == nil {
			a.breakerRecord(nil, bp)
			return out, nil
		}
		if errors.Is(err, ErrRefitInFlight) {
			return nil, err
		}
		kind := ClassifyFailure(err)
		if kind == FailCancelled || kind == FailTimeout {
			return nil, err
		}
		open := a.breakerRecord(err, bp)
		if open {
			return nil, fmt.Errorf("%w (after %d consecutive failures): %v", ErrBreakerOpen, bp.Threshold, err)
		}
		if kind != FailTransient || attempt >= rp.MaxAttempts {
			return nil, err
		}
		delay := a.backoffDelay(rp, attempt)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// RefitHealth reports the refit machinery's observable state.
func (a *Auditor) RefitHealth() RefitHealth {
	a.breakerMu.Lock()
	defer a.breakerMu.Unlock()
	h := RefitHealth{
		ConsecutiveFailures: a.breakerFails,
	}
	if !a.breakerOpenUntil.IsZero() && time.Now().Before(a.breakerOpenUntil) {
		h.BreakerOpen = true
		h.OpenUntil = a.breakerOpenUntil
	}
	if a.lastRefitErr != nil {
		h.LastFailure = a.lastRefitErr.Error()
		h.LastFailureKind = ClassifyFailure(a.lastRefitErr)
	}
	return h
}

// breakerAllow fails fast with ErrBreakerOpen while the breaker is open.
// Once the cooldown has elapsed the call is admitted as the half-open
// probe (the open-until mark is cleared; a failure re-opens it).
func (a *Auditor) breakerAllow(bp BreakerPolicy) error {
	if bp.Threshold < 0 {
		return nil
	}
	a.breakerMu.Lock()
	defer a.breakerMu.Unlock()
	if a.breakerOpenUntil.IsZero() {
		return nil
	}
	if time.Now().Before(a.breakerOpenUntil) {
		return fmt.Errorf("%w until %s", ErrBreakerOpen, a.breakerOpenUntil.Format(time.RFC3339))
	}
	a.breakerOpenUntil = time.Time{} // half-open probe
	return nil
}

// breakerRecord counts one refit outcome against the breaker and reports
// whether this failure opened (or re-opened) it.
func (a *Auditor) breakerRecord(err error, bp BreakerPolicy) bool {
	a.breakerMu.Lock()
	defer a.breakerMu.Unlock()
	if err == nil {
		a.breakerFails = 0
		a.lastRefitErr = nil
		a.breakerOpenUntil = time.Time{}
		return false
	}
	a.breakerFails++
	a.lastRefitErr = err
	if bp.Threshold >= 0 && a.breakerFails >= bp.Threshold {
		a.breakerOpenUntil = time.Now().Add(bp.Cooldown)
		return true
	}
	return false
}

// backoffDelay is the exponential-with-jitter retry schedule: BaseDelay
// doubled per attempt, scaled by a uniform factor in [0.5, 1.5), capped
// at MaxDelay.
func (a *Auditor) backoffDelay(rp RetryPolicy, attempt int) time.Duration {
	d := rp.BaseDelay << uint(attempt-1)
	if d > rp.MaxDelay || d <= 0 {
		d = rp.MaxDelay
	}
	a.breakerMu.Lock()
	if a.retryRNG == nil {
		seed := rp.JitterSeed
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		a.retryRNG = rand.New(rand.NewSource(seed))
	}
	jitter := 0.5 + a.retryRNG.Float64()
	a.breakerMu.Unlock()
	d = time.Duration(float64(d) * jitter)
	if d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	return d
}

// mixedFromPolicy rebuilds the solver-facing mixed strategy from a
// deployable artifact, so an installed policy can be re-evaluated under
// a refit model.
func mixedFromPolicy(p *Policy) *MixedPolicy {
	m := &MixedPolicy{
		Q:          make([]Ordering, len(p.Orderings)),
		Po:         append([]float64(nil), p.Probs...),
		Thresholds: append(Thresholds(nil), p.Thresholds...),
		Objective:  p.ExpectedLoss,
	}
	for i, o := range p.Orderings {
		m.Q[i] = append(Ordering(nil), o...)
	}
	return m
}
