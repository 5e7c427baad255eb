package auditgame

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"auditgame/internal/fault"
)

func TestAuditorWorkloadBinding(t *testing.T) {
	a, err := NewAuditor(AuditorConfig{
		Workload: "syna",
		Budget:   10,
		ISHM:     ISHMConfig{Epsilon: 0.25, ExactInner: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy() != nil || a.PolicyVersion() != 0 {
		t.Fatal("fresh session already has a policy")
	}
	pol, err := a.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil || a.Policy() != pol {
		t.Fatal("Solve did not install the returned policy")
	}
	if a.PolicyVersion() != 1 {
		t.Fatalf("policy version = %d after first solve", a.PolicyVersion())
	}
	sel, err := a.Select([]int{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Spent > pol.Budget+1e-9 {
		t.Fatalf("selection overspent: %v", sel.Spent)
	}

	// Hot reload: round-trip the policy through its JSON artifact.
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := a.ReloadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	if a.PolicyVersion() != 2 {
		t.Fatalf("policy version = %d after reload", a.PolicyVersion())
	}

	// A policy with the wrong shape for the bound game is rejected.
	bad := &Policy{
		TypeNames:  []string{"X"},
		Costs:      []float64{1},
		Budget:     1,
		Thresholds: []float64{1},
		Orderings:  [][]int{{0}},
		Probs:      []float64{1},
	}
	if err := a.SetPolicy(bad); err == nil {
		t.Fatal("1-type policy accepted for the 4-type Syn A game")
	}
}

func TestAuditorExplicitGameAndBudgetFraction(t *testing.T) {
	a, err := NewAuditor(AuditorConfig{
		Game:           SynA(),
		BudgetFraction: 0.3,
		Method:         MethodCGGS,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mixed == nil || res.Policy == nil {
		t.Fatal("CGGS solve missing results")
	}
	if res.Policy.Budget <= 0 {
		t.Fatalf("derived budget = %v", res.Policy.Budget)
	}
}

func TestAuditorPolicyOnlySession(t *testing.T) {
	a, err := NewAuditor(AuditorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(context.Background()); err == nil {
		t.Fatal("policy-only session solved without a workload")
	}
	if _, err := a.Select([]int{1}); err == nil {
		t.Fatal("Select succeeded with no policy")
	}

	src, err := NewAuditor(AuditorConfig{Workload: "syna", Budget: 6, Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := src.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := a.ReloadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Select([]int{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestAuditorConfigValidation(t *testing.T) {
	if _, err := NewAuditor(AuditorConfig{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := NewAuditor(AuditorConfig{Workload: "syna", Game: SynA()}); err == nil {
		t.Fatal("double binding accepted")
	}
	if _, err := NewAuditor(AuditorConfig{Method: "genetic"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	a, err := NewAuditor(AuditorConfig{Game: SynA()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(context.Background()); err == nil {
		t.Fatal("solve without budget accepted")
	}
}

func TestAuditorSeededSelectDeterministic(t *testing.T) {
	mk := func() *Auditor {
		a, err := NewAuditor(AuditorConfig{
			Workload:   "syna",
			Budget:     8,
			Method:     MethodExact,
			SelectSeed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := mk(), mk()
	counts := []int{4, 4, 4, 4}
	for i := 0; i < 20; i++ {
		sa, err := a.Select(counts)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Select(counts)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Spent != sb.Spent {
			t.Fatalf("draw %d: seeded sessions diverged (%v vs %v)", i, sa.Spent, sb.Spent)
		}
		for t2 := range sa.Ordering {
			if sa.Ordering[t2] != sb.Ordering[t2] {
				t.Fatalf("draw %d: orderings diverged", i)
			}
		}
	}
}

// TestAuditorConcurrentSelectDuringReload is the unit-level version of
// the server's hot-reload guarantee: Select keeps succeeding from many
// goroutines while the policy is swapped underneath, with no dropped
// request and no race (run under -race).
func TestAuditorConcurrentSelectDuringReload(t *testing.T) {
	a, err := NewAuditor(AuditorConfig{Workload: "syna", Budget: 8, Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := a.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := pol.Save(&artifact); err != nil {
		t.Fatal(err)
	}
	raw := artifact.Bytes()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.Select([]int{5, 5, 5, 5}); err != nil {
					t.Errorf("select during reload: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := a.ReloadPolicy(bytes.NewReader(raw)); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if a.PolicyVersion() != 201 {
		t.Fatalf("policy version = %d, want 201", a.PolicyVersion())
	}
}

// slowScaledAuditor binds a scaled workload whose CGGS solve runs many
// pricing rounds, each pricing a 64-type ordering over thousands of
// entities. The tests below hold it in flight with inFlightPlan rather
// than trusting it to outlast a sleep, since how long it takes depends
// on the solver's speed and the host's.
func slowScaledAuditor(t *testing.T) *Auditor {
	t.Helper()
	a, err := NewAuditor(AuditorConfig{
		Workload:       "scaled",
		Scale:          WorkloadScale{Entities: 12000, AlertTypes: 64, Seed: 5},
		BudgetFraction: 0.1,
		Method:         MethodCGGS,
		Source:         SourceOptions{BankSize: 2048, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// inFlightPlan is a fault plan that sleeps 50 ms at the start of every
// column-generation pricing round, so a multi-round solve is still
// running whenever a test acts on it mid-solve.
var inFlightPlan = fault.Plan{Seed: 1, Rules: []fault.Rule{
	{Point: fault.SolverPricingRound, Mode: fault.ModeLatency, Prob: 1, Latency: 50 * time.Millisecond},
}}

// awaitPricingRound blocks until the active fault plan has seen the
// first pricing round: the solve has built its instance and is now
// mid-column.
func awaitPricingRound(t *testing.T, done <-chan error) {
	t.Helper()
	for fault.Snapshot().For(fault.SolverPricingRound).Hits == 0 {
		select {
		case err := <-done:
			t.Fatalf("solve returned %v before its first pricing round", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestAuditorSolveCancelMidColumn cancels a slow scaled column-generation
// solve mid-flight and checks the contract the serving layer depends on:
// the solve returns context.Canceled promptly (cancellation is checked
// once per pricing round), installs nothing, and leaks no goroutines
// (the PalBatch evaluation workers all drain).
func TestAuditorSolveCancelMidColumn(t *testing.T) {
	a := slowScaledAuditor(t)
	before := runtime.NumGoroutine()
	fault.Enable(inFlightPlan)
	defer fault.Disable()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Solve(ctx)
		done <- err
	}()
	awaitPricingRound(t, done)
	cancel()

	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("solve did not return after cancellation")
	}
	if lat := time.Since(start); lat > 10*time.Second {
		t.Fatalf("cancellation latency %v exceeds one pricing round by far", lat)
	}
	if a.Policy() != nil {
		t.Fatal("cancelled solve installed a policy")
	}

	// The engine's evaluation workers are per-call and joined before
	// return; give the runtime a moment and require the goroutine count
	// to settle back.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before solve, %d after", before, runtime.NumGoroutine())
}

// TestAuditorReloadDuringSolveDoesNotBlock installs a policy while a
// long solve holds the session's solve lock: the hot-reload path must
// land immediately rather than queue behind the solve.
func TestAuditorReloadDuringSolveDoesNotBlock(t *testing.T) {
	a := slowScaledAuditor(t)
	fault.Enable(inFlightPlan)
	defer fault.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := a.Solve(ctx)
		done <- err
	}()
	awaitPricingRound(t, done) // the solve is mid-column now

	// A hand-built policy matching the scaled game's 64 types.
	p := &Policy{Budget: 10}
	ordering := make([]int, 64)
	for i := range ordering {
		p.TypeNames = append(p.TypeNames, "t")
		p.Costs = append(p.Costs, 1)
		p.Thresholds = append(p.Thresholds, 1)
		ordering[i] = i
	}
	p.Orderings = [][]int{ordering}
	p.Probs = []float64{1}

	start := time.Now()
	if err := a.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("SetPolicy took %v mid-solve; it must not wait for the solve", d)
	}
	if got := a.Policy(); got != p {
		t.Fatal("mid-solve reload did not install")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("solve returned %v", err)
	}
}

// TestAuditorSolveDeadline runs the same slow solve, held in flight,
// under a deadline and under an already-cancelled context.
func TestAuditorSolveDeadline(t *testing.T) {
	a := slowScaledAuditor(t)
	fault.Enable(inFlightPlan)
	defer fault.Disable()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := a.Solve(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline solve returned %v, want context.DeadlineExceeded", err)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	start := time.Now()
	if _, err := a.Solve(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("pre-cancelled solve did not return promptly")
	}
}

// identityPolicy is a valid one-ordering policy over nT alert types.
func identityPolicy(nT int) *Policy {
	p := &Policy{Budget: 8, Probs: []float64{1}, Orderings: [][]int{make([]int, nT)}}
	for t := 0; t < nT; t++ {
		p.TypeNames = append(p.TypeNames, string(rune('A'+t)))
		p.Costs = append(p.Costs, 1)
		p.Thresholds = append(p.Thresholds, 8)
		p.Orderings[0][t] = t
	}
	return p
}

// TestInstallRefusesPastLastVersion is the regression test for a
// version that wrapped: after RestorePolicy(p, MaxUint64−1), two
// SetPolicy calls left PolicyVersion() at 0, the "no policy" value.
// Now the install after MaxUint64 fails on every path — SetPolicy,
// SolveDetailed and Refit — and leaves the session serving the last
// policy, and a refused refit leaves the game and instance unswapped.
func TestInstallRefusesPastLastVersion(t *testing.T) {
	a, err := NewAuditor(AuditorConfig{Workload: "syna", Budget: 8, Method: MethodExact})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RestorePolicy(identityPolicy(4), math.MaxUint64-1); err != nil {
		t.Fatal(err)
	}
	if err := a.SetPolicy(identityPolicy(4)); err != nil {
		t.Fatal(err)
	}
	last := a.Policy()
	// Each refusal must be the version's, not some earlier failure.
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "would wrap to 0") {
			t.Fatalf("%s past version MaxUint64: err %v, want the version refusal", what, err)
		}
	}
	refused("SetPolicy", a.SetPolicy(identityPolicy(4)))
	_, err = a.SolveDetailed(context.Background())
	refused("SolveDetailed", err)
	tr, err := NewTracker(4, TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, RefitOptions{MinLossDelta: -1}); err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 10; day++ {
		if _, err := a.Observe([]int{9 + day%3, 7, 5, 5}); err != nil {
			t.Fatal(err)
		}
	}
	g, in := a.game, a.in
	_, err = a.Refit(context.Background())
	refused("Refit", err)
	if a.game != g || a.in != in {
		t.Fatal("a refused refit swapped the session's game or instance")
	}
	p, v := a.CurrentPolicy()
	if v != math.MaxUint64 || p != last {
		t.Fatalf("after the refused installs: version %d (policy kept: %v), want %d", v, p == last, uint64(math.MaxUint64))
	}
	if _, v, err := a.SelectVersioned([]int{5, 5, 5, 5}); err != nil || v != math.MaxUint64 {
		t.Fatalf("select after the refused installs: version %d, err %v", v, err)
	}
}

// TestRestorePolicyChecks is the regression test for two checkpoint
// restore defects: a restored version of MaxUint64 made the next
// install wrap to version 0, the "no policy" value, and a session bound
// to a workload that no solve had built yet accepted a policy for
// another game, which every Select then refused.
func TestRestorePolicyChecks(t *testing.T) {
	syna := func() *Auditor {
		a, err := NewAuditor(AuditorConfig{Workload: "syna", Budget: 8, Method: MethodExact})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if err := syna().RestorePolicy(identityPolicy(5), 1); err == nil {
		t.Fatal("a fresh Syn A session restored a 5-type policy")
	}
	a := syna()
	if err := a.RestorePolicy(identityPolicy(4), math.MaxUint64); err == nil {
		t.Fatal("RestorePolicy accepted version MaxUint64")
	}
	if err := a.RestorePolicy(identityPolicy(4), math.MaxUint64-1); err != nil {
		t.Fatal(err)
	}
	if _, v, err := a.SelectVersioned([]int{5, 5, 5, 5}); err != nil || v != math.MaxUint64-1 {
		t.Fatalf("select on the restored policy: version %d, err %v", v, err)
	}
	if err := a.SetPolicy(identityPolicy(4)); err != nil {
		t.Fatal(err)
	}
	if v := a.PolicyVersion(); v != math.MaxUint64 {
		t.Fatalf("install after restoring MaxUint64−1 got version %d", v)
	}
	// A policy-only session has no game to check against.
	po, err := NewAuditor(AuditorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := po.RestorePolicy(identityPolicy(5), 3); err != nil {
		t.Fatalf("policy-only session refused a restore: %v", err)
	}
}
