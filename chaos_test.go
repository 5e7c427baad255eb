package auditgame_test

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"auditgame"
	"auditgame/internal/fault"
)

// Retry, breaker, and chaos tests: the failure-containment machinery
// exercised end to end under the seeded fault schedules of
// internal/fault. Everything here is deterministic — same seed, same
// faults — so a failure reproduces.

// fastRetry is a retry policy tight enough for tests: full backoff
// semantics, millisecond delays, pinned jitter.
func fastRetry() auditgame.RetryPolicy {
	return auditgame.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		JitterSeed:  1,
	}
}

// retryAuditor is refitAuditor solved, tracked, and drifted to where a
// Refit is legal, with the given containment options.
func retryAuditor(t *testing.T, opts auditgame.RefitOptions) *auditgame.Auditor {
	t.Helper()
	a := refitAuditor(t)
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, opts); err != nil {
		t.Fatal(err)
	}
	if !driftUntilFire(t, a, []float64{15, 9}, 60, 11) {
		t.Fatal("drift never fired")
	}
	return a
}

// TestRefitRetryAbsorbsTransientFaults injects exactly two transient
// snapshot faults; the third attempt must land and install, and the
// session's refit health must come out clean.
func TestRefitRetryAbsorbsTransientFaults(t *testing.T) {
	a := retryAuditor(t, auditgame.RefitOptions{Retry: fastRetry()})
	fault.Enable(fault.Plan{Seed: 21, Rules: []fault.Rule{
		{Point: fault.RefitSnapshot, Mode: fault.ModeError, Prob: 1, MaxFires: 2},
	}})
	defer fault.Disable()

	out, err := a.RefitWithRetry(context.Background())
	if err != nil {
		t.Fatalf("RefitWithRetry with 2 injected faults and 3 attempts: %v", err)
	}
	if !out.Installed || out.Outcome != auditgame.RefitInstalled {
		t.Fatalf("refit outcome after retries = %+v, want installed", out)
	}
	if s := fault.Snapshot(); s[fault.RefitSnapshot].Fires != 2 {
		t.Fatalf("fault fires = %d, want both retries to have been needed", s[fault.RefitSnapshot].Fires)
	}
	if h := a.RefitHealth(); h.BreakerOpen || h.ConsecutiveFailures != 0 || h.LastFailure != "" {
		t.Fatalf("refit health after a recovered retry = %+v, want clean", h)
	}
}

// TestRefitRetryGivesUpAtMaxAttempts pins the attempt budget: with more
// faults than attempts the call fails with the injected (transient)
// error and the failure is visible in RefitHealth.
func TestRefitRetryGivesUpAtMaxAttempts(t *testing.T) {
	a := retryAuditor(t, auditgame.RefitOptions{
		Retry:   fastRetry(),
		Breaker: auditgame.BreakerPolicy{Threshold: -1},
	})
	fault.Enable(fault.Plan{Seed: 22, Rules: []fault.Rule{
		{Point: fault.RefitSnapshot, Mode: fault.ModeError, Prob: 1},
	}})
	defer fault.Disable()

	_, err := a.RefitWithRetry(context.Background())
	if err == nil || !fault.IsInjected(err) {
		t.Fatalf("err = %v, want the injected fault after the attempt budget", err)
	}
	if s := fault.Snapshot(); s[fault.RefitSnapshot].Fires != 3 {
		t.Fatalf("fault fires = %d, want MaxAttempts", s[fault.RefitSnapshot].Fires)
	}
	h := a.RefitHealth()
	if h.ConsecutiveFailures != 3 || h.LastFailureKind != auditgame.FailTransient {
		t.Fatalf("refit health after exhausted retries = %+v", h)
	}
	if v := a.PolicyVersion(); v != 1 {
		t.Fatalf("failed refit moved the policy to version %d", v)
	}
	// The incumbent still serves.
	if _, err := a.Select([]int{5, 3}); err != nil {
		t.Fatalf("Select after a failed refit: %v", err)
	}
}

// TestRefitBreakerOpensAndRecovers walks the breaker through its full
// cycle: consecutive failures open it, open fails fast without touching
// the tracker, and the post-cooldown half-open probe closes it again.
func TestRefitBreakerOpensAndRecovers(t *testing.T) {
	a := retryAuditor(t, auditgame.RefitOptions{
		Retry:   auditgame.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		Breaker: auditgame.BreakerPolicy{Threshold: 2, Cooldown: 100 * time.Millisecond},
	})
	fault.Enable(fault.Plan{Seed: 23, Rules: []fault.Rule{
		{Point: fault.RefitSnapshot, Mode: fault.ModeError, Prob: 1},
	}})
	defer fault.Disable()

	if _, err := a.RefitWithRetry(context.Background()); err == nil || errors.Is(err, auditgame.ErrBreakerOpen) {
		t.Fatalf("first failure: err = %v, want the injected fault, breaker still closed", err)
	}
	if h := a.RefitHealth(); h.BreakerOpen || h.ConsecutiveFailures != 1 {
		t.Fatalf("health after one failure = %+v", h)
	}

	if _, err := a.RefitWithRetry(context.Background()); !errors.Is(err, auditgame.ErrBreakerOpen) {
		t.Fatalf("second failure: err = %v, want ErrBreakerOpen (threshold reached)", err)
	}
	h := a.RefitHealth()
	if !h.BreakerOpen || h.OpenUntil.IsZero() || h.ConsecutiveFailures != 2 {
		t.Fatalf("health with the breaker open = %+v", h)
	}

	// Open: fails fast, and never reaches the Refit body (the snapshot
	// point's hit counter must not advance).
	hitsBefore := fault.Snapshot()[fault.RefitSnapshot].Hits
	if _, err := a.RefitWithRetry(context.Background()); !errors.Is(err, auditgame.ErrBreakerOpen) {
		t.Fatalf("open breaker: err = %v, want ErrBreakerOpen", err)
	}
	if hits := fault.Snapshot()[fault.RefitSnapshot].Hits; hits != hitsBefore {
		t.Fatal("an open breaker still ran a refit attempt")
	}

	// Cooldown over, faults gone: the half-open probe succeeds and the
	// breaker closes.
	fault.Disable()
	time.Sleep(120 * time.Millisecond)
	out, err := a.RefitWithRetry(context.Background())
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if !out.Installed {
		t.Fatalf("half-open probe outcome = %+v, want installed", out)
	}
	if h := a.RefitHealth(); h.BreakerOpen || h.ConsecutiveFailures != 0 || h.LastFailure != "" {
		t.Fatalf("health after recovery = %+v, want clean", h)
	}
}

// TestRefitRetryPassesCancellationThrough pins that cancellations are
// the caller's doing: returned immediately, never retried, never
// counted against the breaker.
func TestRefitRetryPassesCancellationThrough(t *testing.T) {
	a := retryAuditor(t, auditgame.RefitOptions{Retry: fastRetry()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.RefitWithRetry(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RefitWithRetry: err = %v, want context.Canceled", err)
	}
	if h := a.RefitHealth(); h.ConsecutiveFailures != 0 {
		t.Fatalf("cancellation counted against the breaker: %+v", h)
	}
}

// TestChaosHammer is the capstone: the full observe → drift → refit →
// install loop runs under a seeded fault schedule covering the solver,
// kernel, LP, and refit injection points, with serving traffic hammering
// the session from concurrent goroutines (run it under -race). The
// invariants, checked continuously:
//
//   - the served policy is always a valid simplex (Policy.Validate);
//   - policy_version is monotone non-decreasing;
//   - the incumbent policy is never lost, whatever fails;
//   - no goroutine leaks out of the containment machinery;
//   - after the chaos, a fresh fault-free session reproduces the golden
//     loss to 1e-9 — the faults corrupted no process-global state.
//
// CHAOS_ITERS scales the drift/refit cycles (default 6, which CI's
// smoke runs too; soak runs use more).
func TestChaosHammer(t *testing.T) {
	iters := 6
	if s := os.Getenv("CHAOS_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_ITERS %q", s)
		}
		iters = n
	}
	goroutinesBefore := runtime.NumGoroutine()

	// Golden: a fault-free session's first solve, the loss the post-chaos
	// control must reproduce.
	golden := cggsRefitAuditor(t, auditgame.RefitOptions{}).Policy().ExpectedLoss

	a := cggsRefitAuditor(t, auditgame.RefitOptions{
		Retry:   fastRetry(),
		Breaker: auditgame.BreakerPolicy{Threshold: -1}, // keep hammering; the breaker has its own test
	})
	fault.Enable(fault.Plan{Seed: 42, Rules: []fault.Rule{
		{Point: fault.SolverPricingRound, Mode: fault.ModeError, Prob: 0.2},
		{Point: fault.SolverPricingRound, Mode: fault.ModePanic, Prob: 0.1},
		{Point: fault.PalWorker, Mode: fault.ModePanic, Prob: 0.12},
		{Point: fault.LPPivot, Mode: fault.ModePanic, Prob: 0.03},
		{Point: fault.RefitSnapshot, Mode: fault.ModeError, Prob: 0.4},
	}})
	defer fault.Disable()

	// Serving traffic: selectors hammer the session throughout and verify
	// the incumbent and version invariants on every request.
	// The version read and the monotonicity compare must be one critical
	// section: with a plain atomic max, two checkers can read versions in
	// one order and compare them in the other, reporting a phantom
	// regression.
	var versionMu sync.Mutex
	lastVersion := a.PolicyVersion()
	checkServing := func() {
		versionMu.Lock()
		p, v := a.CurrentPolicy()
		if v < lastVersion {
			t.Errorf("policy_version went backwards: %d after %d", v, lastVersion)
		}
		lastVersion = v
		versionMu.Unlock()
		if p == nil {
			t.Error("incumbent policy lost")
			return
		}
		if err := p.Validate(); err != nil {
			t.Errorf("served policy invalid at version %d: %v", v, err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			counts := []int{5, 3}
			for {
				select {
				case <-stop:
					return
				default:
				}
				counts[0], counts[1] = (counts[0]+seed)%20, (counts[1]+2*seed+1)%20
				if _, err := a.Select(counts); err != nil {
					t.Errorf("Select under chaos: %v", err)
					return
				}
				checkServing()
			}
		}(w + 1)
	}

	// The chaos loop: drift the workload back and forth, refit through
	// the containment machinery, tolerate contained failures, never
	// tolerate a broken invariant.
	means := [][]float64{{15, 9}, {4, 12}}
	installs, failures := 0, 0
	for i := 0; i < iters; i++ {
		if !driftUntilFire(t, a, means[i%2], 120, int64(30+i)) {
			t.Fatalf("iter %d: drift never fired", i)
		}
		out, err := a.RefitWithRetry(context.Background())
		if err != nil {
			failures++
			switch kind := auditgame.ClassifyFailure(err); kind {
			case auditgame.FailPanic, auditgame.FailTransient, auditgame.FailInternal:
				t.Logf("iter %d: contained refit failure (%s): %v", i, kind, err)
			default:
				t.Errorf("iter %d: refit failure with unexpected kind %q: %v", i, kind, err)
			}
		} else {
			if out.Outcome != auditgame.RefitInstalled && out.Outcome != auditgame.RefitGated {
				t.Errorf("iter %d: refit outcome %q", i, out.Outcome)
			}
			if out.Installed {
				installs++
			}
		}
		checkServing()
	}
	close(stop)
	wg.Wait()

	// The schedule must actually have exercised the loop: every planned
	// point hit, some faults fired, and at least one refit still landed.
	stats := fault.Snapshot()
	var fires uint64
	for _, p := range []fault.Point{
		fault.SolverPricingRound, fault.PalWorker, fault.LPPivot, fault.RefitSnapshot,
	} {
		if stats[p].Hits == 0 {
			t.Errorf("injection point %s never hit", p)
		}
		fires += stats[p].Fires
	}
	if fires == 0 {
		t.Fatal("no faults fired; the chaos schedule is vacuous")
	}
	if installs == 0 {
		t.Fatalf("no refit survived the chaos (%d failures in %d iters); containment too lossy", failures, iters)
	}
	t.Logf("chaos: %d iters, %d installs, %d contained failures, %d fault firings (%v)",
		iters, installs, failures, fires, stats)
	fault.Disable()

	// The session still works fault-free…
	if !driftUntilFire(t, a, []float64{15, 9}, 120, 997) {
		t.Fatal("post-chaos drift never fired")
	}
	if _, err := a.RefitWithRetry(context.Background()); err != nil {
		t.Fatalf("post-chaos fault-free refit: %v", err)
	}
	// …no goroutines leaked out of the containment machinery…
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+3 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+3 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before chaos, %d after:\n%s", goroutinesBefore, n, buf[:runtime.Stack(buf, true)])
	}
	// …and no process-global state was corrupted: a pristine session
	// reproduces the fault-free golden loss exactly.
	control := cggsRefitAuditor(t, auditgame.RefitOptions{}).Policy().ExpectedLoss
	if d := control - golden; d > 1e-9 || d < -1e-9 {
		t.Fatalf("post-chaos control solve loss %.12f != golden %.12f", control, golden)
	}
}
