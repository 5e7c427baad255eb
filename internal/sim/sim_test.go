package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSameSeedSameRun is the determinism contract end to end: two runs
// with the same seed produce the identical event trace and identical
// output curves, bit for bit.
func TestSameSeedSameRun(t *testing.T) {
	ctx := context.Background()
	a, err := Run(ctx, "stepchange", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, "stepchange", Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hashes differ: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if a.CumRegret != b.CumRegret {
		t.Fatalf("cumulative regret differs: %v vs %v", a.CumRegret, b.CumRegret)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("per-period curves differ between identical seeded runs")
	}
	if !reflect.DeepEqual(a.Drifts, b.Drifts) {
		t.Fatalf("drift records differ: %v vs %v", a.Drifts, b.Drifts)
	}

	// The trace covers the refit schedule, so a different strategy is a
	// different event sequence.
	c, err := Run(ctx, "stepchange", Options{Seed: 7, Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatal("static and drift strategies dispatched the same event trace")
	}
}

// TestTraceStableAcrossGOMAXPROCS pins the worker-count half of the
// contract: the kernel is single-threaded and the solver underneath is
// bitwise-deterministic at every worker count, so GOMAXPROCS must not
// leak into the trace or the curves. The race target runs this under
// -race.
func TestTraceStableAcrossGOMAXPROCS(t *testing.T) {
	ctx := context.Background()
	prev := runtime.GOMAXPROCS(1)
	one, err := Run(ctx, "stepchange", Options{Seed: 3})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(ctx, "stepchange", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if one.TraceHash != many.TraceHash {
		t.Fatalf("trace hash depends on GOMAXPROCS: %s at 1 vs %s at %d",
			one.TraceHash, many.TraceHash, prev)
	}
	if !reflect.DeepEqual(one.Points, many.Points) {
		t.Fatal("curves depend on GOMAXPROCS")
	}
}

// TestDriftBeatsStaticOnStep is the e2e acceptance scenario: under a
// step change, the drift-triggered strategy must end with lower
// cumulative regret than the static baseline, and the ordering must
// come from actual refits.
func TestDriftBeatsStaticOnStep(t *testing.T) {
	ctx := context.Background()
	drift, err := Run(ctx, "stepchange", Options{Seed: 1, Strategy: StrategyDrift})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(ctx, "stepchange", Options{Seed: 1, Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if static.Refits != 0 {
		t.Fatalf("static strategy ran %d refits", static.Refits)
	}
	if drift.Refits == 0 {
		t.Fatal("drift strategy never refitted under a step change")
	}
	if drift.RefitsInstalled == 0 {
		t.Fatal("drift strategy refitted but never installed")
	}
	if drift.CumRegret >= static.CumRegret {
		t.Fatalf("drift cumulative regret %.3f did not beat static %.3f",
			drift.CumRegret, static.CumRegret)
	}
	// The step change must leave a recovery record: the spike decays
	// after the refit.
	if len(drift.Drifts) != 1 || drift.Drifts[0].RecoveredAt < 0 {
		t.Fatalf("drift run did not recover from the step change: %+v", drift.Drifts)
	}
	if static.CumRegret <= 0 {
		t.Fatalf("static baseline shows no regret under a step change: %v", static.CumRegret)
	}
}

// TestBurstOutageNeverBeatsTheReference is the regression test for a
// type that goes silent: the burst scenario's outage silences one alert
// type, and the reference solve on the true model used to cap its
// threshold at 0 and never audit it, so every strategy showed periods of
// negative regret. With the one-alert cap floor no period may. The
// other scenarios run too, unless -short, so the whole grid — every
// scenario under the three refit strategies at seeds 1–3 — checks that
// Result counts the periods whose regret is below −1e-9 and that there
// are none: no serving policy beats the reference solve.
func TestBurstOutageNeverBeatsTheReference(t *testing.T) {
	for _, scn := range Scenarios() {
		if scn != "burst" && testing.Short() {
			continue
		}
		for _, strategy := range []Strategy{StrategyStatic, StrategyCron, StrategyDrift} {
			for seed := int64(1); seed <= 3; seed++ {
				res, err := Run(context.Background(), scn, Options{Seed: seed, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, p := range res.Points {
					if p.Regret < -1e-9 {
						n++
						t.Errorf("%s/%s seed %d: period %d regret %v (loss %v, reference %v)",
							scn, strategy, seed, p.Period, p.Regret, p.Loss, p.OptLoss)
					}
				}
				if res.NegativeRegretPeriods != n {
					t.Errorf("%s/%s seed %d: Result counts %d negative-regret periods, the curve has %d",
						scn, strategy, seed, res.NegativeRegretPeriods, n)
				}
			}
		}
	}
}

// TestSeasonalBoundaryFires asserts the drift detector fires only at
// the scheduled regime boundaries of the seasonal scenario: never
// during the initial weekday stretch, and every firing within a few
// periods of a rota switch (or the injected regime flip).
func TestSeasonalBoundaryFires(t *testing.T) {
	res, err := Run(context.Background(), "seasonal", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The rota runs 10 weekday periods then 5 weekend periods, so the
	// regime switches at p ≡ 10 and p ≡ 0 (mod 15); the injected flip
	// at 48 freezes the model, making it the final boundary.
	boundaries := []int{10, 15, 25, 30, 40, 45, 48}
	const slack = 8 // detector window fill + hysteresis after a switch

	var fires []int
	for _, pt := range res.Points {
		if pt.Drift {
			fires = append(fires, pt.Period)
		}
	}
	if len(fires) == 0 {
		t.Fatal("seasonal run never fired the drift detector")
	}
	if fires[0] < boundaries[0] {
		t.Fatalf("detector fired at period %d, before the first regime boundary at %d", fires[0], boundaries[0])
	}
	for _, f := range fires {
		last := -1
		for _, b := range boundaries {
			if b <= f {
				last = b
			}
		}
		if f-last > slack {
			t.Fatalf("firing at period %d is %d periods after the nearest boundary %d (slack %d); fires=%v",
				f, f-last, last, slack, fires)
		}
	}
}

// TestDetectionCrossCheck replays the attacker's strikes against the
// executed selections and compares the empirical detection rate with
// the model's predicted Pat — the two must agree within sampling
// noise on every scenario.
func TestDetectionCrossCheck(t *testing.T) {
	ctx := context.Background()
	for _, name := range Scenarios() {
		res, err := Run(ctx, name, Options{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.AttacksMounted == 0 {
			t.Fatalf("%s: attacker never mounted", name)
		}
		for _, v := range []float64{res.EmpiricalDetection, res.PredictedDetection} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: detection rate %v outside [0,1]", name, v)
			}
		}
		if d := math.Abs(res.EmpiricalDetection - res.PredictedDetection); d > 0.15 {
			t.Fatalf("%s: empirical detection %.3f vs predicted %.3f differ by %.3f",
				name, res.EmpiricalDetection, res.PredictedDetection, d)
		}
	}
}

// TestScenarioRegistry checks the registry surface and option
// validation.
func TestScenarioRegistry(t *testing.T) {
	if len(Scenarios()) < 4 {
		t.Fatalf("want at least 4 scenarios, have %d", len(Scenarios()))
	}
	if _, ok := GetScenario("no-such-scenario"); ok {
		t.Fatal("unknown scenario should not resolve")
	}
	if _, err := Run(context.Background(), "stepchange", Options{Strategy: "guess"}); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

// TestResultWriters checks the JSON and CSV emitters round-trip the
// run: JSON decodes back to the same summary, CSV has one row per
// period plus the header.
func TestResultWriters(t *testing.T) {
	res, err := Run(context.Background(), "burst", Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.TraceHash != res.TraceHash || back.CumRegret != res.CumRegret || len(back.Points) != len(res.Points) {
		t.Fatal("JSON round-trip lost data")
	}

	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.Horizon+1 {
		t.Fatalf("CSV has %d lines, want %d (header + one per period)", len(lines), res.Horizon+1)
	}
	if !strings.HasPrefix(lines[0], "period,loss,opt_loss") {
		t.Fatalf("CSV header %q", lines[0])
	}
}

// TestHorizonOverride checks Options.Horizon truncates a run; the
// injection beyond the short horizon is skipped, so the short run is a
// prefix-stationary sanity check.
func TestHorizonOverride(t *testing.T) {
	res, err := Run(context.Background(), "stepchange", Options{Seed: 1, Horizon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 6 || len(res.Points) != 6 {
		t.Fatalf("horizon override gave %d points (horizon %d)", len(res.Points), res.Horizon)
	}
	if len(res.Drifts) != 0 {
		t.Fatalf("injection past the horizon should be skipped, got %v", res.Drifts)
	}
}
