package auditgame_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"auditgame"
)

// refitGame is a small two-type insider-threat game whose exact solve is
// fast enough to run many times per test.
func refitGame() *auditgame.Game {
	g := &auditgame.Game{
		Entities:      []auditgame.Entity{{Name: "insider", PAttack: 0.6}},
		Victims:       []string{"db-a", "db-b"},
		AllowNoAttack: true,
	}
	means := []float64{5, 3}
	stds := []float64{1.5, 1.2}
	benefits := []float64{6, 8}
	var attacks []auditgame.Attack
	for t := 0; t < 2; t++ {
		g.Types = append(g.Types, auditgame.AlertType{
			Name: []string{"exfil", "escalate"}[t],
			Cost: 1,
			Dist: auditgame.GaussianCounts(means[t], stds[t], 0.995),
		})
		attacks = append(attacks, auditgame.DeterministicAttack(2, t, benefits[t], 10, 1))
	}
	g.Attacks = [][]auditgame.Attack{attacks}
	return g
}

func refitAuditor(t *testing.T) *auditgame.Auditor {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   refitGame(),
		Budget: 3,
		Method: auditgame.MethodExact,
		Source: auditgame.SourceOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// driftUntilFire samples counts from per-type gaussians and observes
// them until drift fires (or maxDays elapse).
func driftUntilFire(t *testing.T, a *auditgame.Auditor, means []float64, maxDays int, seed int64) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	dists := make([]auditgame.Distribution, len(means))
	for i, m := range means {
		dists[i] = auditgame.GaussianCounts(m, 1.5, 0.995)
	}
	counts := make([]int, len(means))
	for day := 0; day < maxDays; day++ {
		for i, d := range dists {
			counts[i] = d.Sample(r)
		}
		dec, err := a.Observe(counts)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Drift {
			return true
		}
	}
	return false
}

func TestAuditorRefitLifecycle(t *testing.T) {
	a := refitAuditor(t)
	if _, err := a.Observe([]int{5, 3}); !errors.Is(err, auditgame.ErrNoTracker) {
		t.Fatalf("Observe without a tracker: err = %v, want ErrNoTracker", err)
	}
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.Tracker() != tr {
		t.Fatal("Tracker() does not return the attached tracker")
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{}); err == nil {
		t.Fatal("second AttachTracker should fail")
	}
	if st := tr.State(); st.InstalledVersion != 1 || len(st.ModelMeans) != 2 {
		t.Fatalf("tracker state after attach = %+v, want reference model at version 1", st)
	}

	// A tripled workload must fire and an ungated refit must install.
	if !driftUntilFire(t, a, []float64{15, 9}, 60, 11) {
		t.Fatal("drift never fired on a tripled workload")
	}
	out, err := a.Refit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Installed || out.PolicyVersion != 2 {
		t.Fatalf("refit outcome = %+v, want installed as version 2", out)
	}
	if got := a.PolicyVersion(); got != 2 {
		t.Fatalf("PolicyVersion() = %d, want 2", got)
	}
	if out.OldLoss <= out.NewLoss {
		t.Fatalf("refit did not improve the loss under the new model: old %v, new %v", out.OldLoss, out.NewLoss)
	}
	// The session's game now carries the window model: type-0 mean must
	// have moved from 5 toward 15.
	g, err := a.Game()
	if err != nil {
		t.Fatal(err)
	}
	if m := g.Types[0].Dist.Mean(); m < 10 {
		t.Fatalf("refit game type-0 mean = %v, want near the drifted workload (≈15)", m)
	}
	if st := tr.State(); st.InstalledVersion != 2 || st.Installs != 2 {
		t.Fatalf("tracker state after refit = %+v, want installed version 2 after 2 installs (attach seed, refit)", st)
	}
	// Selections keep working against the refit policy.
	if _, v, err := a.SelectVersioned([]int{12, 8}); err != nil || v != 2 {
		t.Fatalf("SelectVersioned after refit: v = %d, err = %v", v, err)
	}
	// An artifact install (the hot-reload path) also resets the
	// tracker's reference version, so /v1/drift stays attributable.
	if err := a.SetPolicy(a.Policy()); err != nil {
		t.Fatal(err)
	}
	if st := tr.State(); st.InstalledVersion != 3 {
		t.Fatalf("tracker reference at version %d after SetPolicy, want 3", st.InstalledVersion)
	}
}

func TestAuditorRefitGateRejects(t *testing.T) {
	a := refitAuditor(t)
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	// A gate no refit can clear: relative improvement is < 1 whenever
	// the refit loss stays positive.
	if err := a.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: 5}); err != nil {
		t.Fatal(err)
	}
	if !driftUntilFire(t, a, []float64{15, 9}, 60, 11) {
		t.Fatal("drift never fired")
	}
	out, err := a.Refit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Installed {
		t.Fatalf("refit installed through an impossible gate: %+v", out)
	}
	if !strings.Contains(out.Reason, "gate") {
		t.Fatalf("gate rejection reason = %q", out.Reason)
	}
	if v := a.PolicyVersion(); v != 1 {
		t.Fatalf("PolicyVersion() = %d after a gated refit, want 1", v)
	}
	if st := tr.State(); st.InstalledVersion != 1 {
		t.Fatalf("tracker reference moved to version %d despite the gate", st.InstalledVersion)
	}
}

// TestAttachTrackerFailureIsClean pins that a rejected AttachTracker —
// shape mismatch or duplicate attach — leaves both the session and any
// already-attached tracker undisturbed.
func TestAttachTrackerFailureIsClean(t *testing.T) {
	a := refitAuditor(t)
	wrong, err := auditgame.NewTracker(3, auditgame.TrackerConfig{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(wrong, auditgame.RefitOptions{}); err == nil {
		t.Fatal("AttachTracker accepted a 3-type tracker on a 2-type game")
	}
	if a.Tracker() != nil {
		t.Fatal("failed attach left a tracker bound to the session")
	}
	if _, err := a.Observe([]int{5, 3}); !errors.Is(err, auditgame.ErrNoTracker) {
		t.Fatalf("Observe after failed attach: err = %v, want ErrNoTracker", err)
	}
	// A correct attach still works afterwards…
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{}); err != nil {
		t.Fatal(err)
	}
	// …and a duplicate attach fails without poking the live tracker's
	// reference model (whose install would restart the cooldown).
	before := tr.State().Installs
	dup, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(dup, auditgame.RefitOptions{}); err == nil {
		t.Fatal("duplicate AttachTracker succeeded")
	}
	if got := tr.State().Installs; got != before {
		t.Fatalf("duplicate attach changed the live tracker's installs: %d → %d", before, got)
	}
	if dup.State().Installs != 0 {
		t.Fatal("duplicate attach seeded the rejected tracker")
	}
}

// cggsRefitAuditor binds the refit game to a column-generation session
// with the exhaustive pricing oracle, so every solve — warm or cold —
// is exact and the warm/cold comparison is a golden equivalence.
func cggsRefitAuditor(t *testing.T, opts auditgame.RefitOptions) *auditgame.Auditor {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   refitGame(),
		Budget: 3,
		Method: auditgame.MethodCGGS,
		CGGS:   auditgame.CGGSConfig{ExhaustiveOracle: true},
		Source: auditgame.SourceOptions{Seed: 1},
		// Fixed thresholds: with the default (each model's full-coverage
		// caps) a drifted snapshot widens the caps, which is a structural
		// change and would legitimately force the refit cold.
		Thresholds: auditgame.Thresholds{3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm == nil || res.Warm.Warm {
		t.Fatalf("first CGGS solve warm accounting = %+v, want a cold solve's", res.Warm)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, opts); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestRefitWarmMatchesColdSolve drives a CGGS session through a drift
// and a warm refit, then solves the installed refit game from scratch
// on a fresh session and requires the same refit loss to LP tolerance.
// The warm path must actually be warm: reused columns and the warm flag
// on the outcome.
func TestRefitWarmMatchesColdSolve(t *testing.T) {
	warm := cggsRefitAuditor(t, auditgame.RefitOptions{})
	if !driftUntilFire(t, warm, []float64{15, 9}, 60, 11) {
		t.Fatal("drift never fired on a tripled workload")
	}
	wout, err := warm.Refit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wout.Warm == nil || !wout.Warm.Warm || wout.Warm.ColumnsReused == 0 {
		t.Fatalf("warm refit accounting = %+v, want a warm solve with reused columns", wout.Warm)
	}
	if !wout.Installed {
		t.Fatalf("warm refit not installed: %+v", wout)
	}
	// The cold reference binds the installed refit game with the warm
	// session's budget, realization source and thresholds, so it builds
	// the same instance the refit solved and was scored on.
	g, err := warm.Game()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:       g,
		Budget:     3,
		Method:     auditgame.MethodCGGS,
		CGGS:       auditgame.CGGSConfig{ExhaustiveOracle: true},
		Source:     auditgame.SourceOptions{Seed: 1},
		Thresholds: auditgame.Thresholds{3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cold.SolveDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cres.Warm == nil || cres.Warm.Warm {
		t.Fatalf("cold reference accounting = %+v, want a cold solve's", cres.Warm)
	}
	in, err := auditgame.NewInstance(g, 3, auditgame.SourceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coldLoss := auditgame.Loss(in, cres.Mixed)
	if d := wout.NewLoss - coldLoss; d > 1e-9 || d < -1e-9 {
		t.Fatalf("warm refit loss %.12f != cold solve loss %.12f", wout.NewLoss, coldLoss)
	}
	// A second drift-and-refit cycle stays warm across the install.
	if !driftUntilFire(t, warm, []float64{4, 12}, 60, 13) {
		t.Fatal("second drift never fired")
	}
	wout2, err := warm.Refit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wout2.Warm == nil || !wout2.Warm.Warm {
		t.Fatalf("second refit accounting = %+v, want warm", wout2.Warm)
	}
}

// TestConcurrentObserveDuringWarmRefit is the race hammer: ingest
// traffic (Observe) and serving traffic (Select) run full tilt while
// warm refits solve and install. Run under -race this pins that the
// persisted solve state never leaks outside the solve lock.
func TestConcurrentObserveDuringWarmRefit(t *testing.T) {
	a := cggsRefitAuditor(t, auditgame.RefitOptions{})
	if !driftUntilFire(t, a, []float64{15, 9}, 60, 11) {
		t.Fatal("drift never fired")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			counts := make([]int, 2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				counts[0], counts[1] = r.Intn(20), r.Intn(20)
				if _, err := a.Observe(counts); err != nil {
					t.Errorf("Observe during refit: %v", err)
					return
				}
				if _, err := a.Select(counts); err != nil {
					t.Errorf("Select during refit: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	for i := 0; i < 3; i++ {
		out, err := a.Refit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (out.Warm == nil || !out.Warm.Warm) {
			t.Fatalf("refit %d under load not warm: %+v", i, out.Warm)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRefitCancellation checks that a cancelled refit installs nothing,
// mirroring the Solve cancellation contract.
func TestRefitCancellation(t *testing.T) {
	a := refitAuditor(t)
	if _, err := a.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := auditgame.NewTracker(2, auditgame.TrackerConfig{Window: 10, MinInterval: -1, Cooldown: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{}); err != nil {
		t.Fatal(err)
	}
	if !driftUntilFire(t, a, []float64{15, 9}, 60, 11) {
		t.Fatal("drift never fired")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Refit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled refit: err = %v, want context.Canceled", err)
	}
	if v := a.PolicyVersion(); v != 1 {
		t.Fatalf("cancelled refit installed version %d", v)
	}
}
