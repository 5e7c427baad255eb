package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
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

// gridPin is one grid run's bits: the kernel's trace hash, the final
// cumulative regret's float bits, and pointsDigest of its curve.
type gridPin struct {
	hash   string
	regret uint64
	points uint64
}

// gridPins holds the bits of every run of the 36-run grid (scenario ×
// strategy × seed 1–3). Any change to a loss, a reference, an RNG draw
// or the event schedule moves at least one of them.
var gridPins = map[string]gridPin{
	"stepchange/static/1": {"5930d61f940e0f9b", 0x407dca3ae7a4fe4f, 0x43cf95e5b0ad0c85},
	"stepchange/static/2": {"5930d61f940e0f9b", 0x40702aa551940a84, 0xf646548590b011b7},
	"stepchange/static/3": {"5930d61f940e0f9b", 0x407403aa5e8b5588, 0xdcd411c6006e2410},
	"stepchange/cron/1":   {"9d819dbae8d8c8e2", 0x406c60b3eaf57bfc, 0xf1d23e57b3b4326e},
	"stepchange/cron/2":   {"9d819dbae8d8c8e2", 0x4068f84fc88f4402, 0x2efec499a63b5719},
	"stepchange/cron/3":   {"9d819dbae8d8c8e2", 0x40638e366478effe, 0xb7d520be9d6acac0},
	"stepchange/drift/1":  {"f87f7f55a4903242", 0x406bd57e9d5bc3db, 0xc457af5925e3668e},
	"stepchange/drift/2":  {"a1cef8c0150cbbf2", 0x406974727c9beb48, 0x66541b4955852dcc},
	"stepchange/drift/3":  {"07991e2fb3eda8c2", 0x405c1231eb66e4da, 0x256481b452c072a6},
	"ramp/static/1":       {"ad3a40b502f4a2ae", 0x407d8584c9a270dd, 0x3fead297ed74ae08},
	"ramp/static/2":       {"ad3a40b502f4a2ae", 0x40706f311369f0ec, 0xfa9d5a963a83ea55},
	"ramp/static/3":       {"ad3a40b502f4a2ae", 0x4075efea5f354e47, 0x3cceb0ffdc9b6485},
	"ramp/cron/1":         {"7463aeb74784b198", 0x4067b7af4b4cefd6, 0x5a489134eecf5d22},
	"ramp/cron/2":         {"7463aeb74784b198", 0x4064b1ddb57c3d5e, 0x806132ef4ef52a0f},
	"ramp/cron/3":         {"7463aeb74784b198", 0x4065c69e91500446, 0x1829a7dcdac87324},
	"ramp/drift/1":        {"0d38b4645a4bffe6", 0x4069daee1db25abb, 0x64e4ed5db9286977},
	"ramp/drift/2":        {"dbab0ffaa8f59b09", 0x4063c74205c897b0, 0xe6a164f923985742},
	"ramp/drift/3":        {"2db1b05e7c3148cd", 0x40617a82557d6520, 0x8af4c89afcd9ca8},
	"burst/static/1":      {"04585d8d6a65aff3", 0x4063362870e33f7a, 0x5e9be7e90ee94037},
	"burst/static/2":      {"04585d8d6a65aff3", 0x406988e727943ed0, 0x6f3e138a6c79f2f5},
	"burst/static/3":      {"04585d8d6a65aff3", 0x40715cf3f1c1b92b, 0x9b01ef0ac9815be2},
	"burst/cron/1":        {"a2915941cbe864c3", 0x407b7697b494c896, 0x5082e26e23cae953},
	"burst/cron/2":        {"a2915941cbe864c3", 0x40774445d7f25800, 0xd658eabfbc4daf2b},
	"burst/cron/3":        {"a2915941cbe864c3", 0x4078908b2fdfca3a, 0xe4cd546b0dc8ab26},
	"burst/drift/1":       {"6a364ddbc3414ce0", 0x406cb0a9727ca649, 0xea81af3bec8ec3d9},
	"burst/drift/2":       {"6a364ddbc3414ce0", 0x406a7fd58589dcd2, 0xbc0ebf7d9d2f75ed},
	"burst/drift/3":       {"6a364ddbc3414ce0", 0x4071dd6a298cd818, 0xfa31763e1347739f},
	"seasonal/static/1":   {"351ae4461ef1259e", 0x408bf46bc3616e9f, 0x9ff0aa0b2271120},
	"seasonal/static/2":   {"351ae4461ef1259e", 0x4086eeb709b5890d, 0x1a02389d5f296752},
	"seasonal/static/3":   {"351ae4461ef1259e", 0x4089005aa1890932, 0xc286cb0ac7f598f},
	"seasonal/cron/1":     {"0f1e0a05f65b1cb1", 0x4076d94e8677392c, 0x9c71588c1ddc63c7},
	"seasonal/cron/2":     {"0f1e0a05f65b1cb1", 0x40808da530a5de43, 0x2512a914f2a0c223},
	"seasonal/cron/3":     {"0f1e0a05f65b1cb1", 0x407d43360689de73, 0x8d5c3bcf44566c73},
	"seasonal/drift/1":    {"cd69d8bb04b72ab3", 0x407bd0c26ec5e498, 0xc77fe098604161b6},
	"seasonal/drift/2":    {"a358595cebe2167a", 0x40832ea865f492b2, 0xaa09f2b56aab1b8e},
	"seasonal/drift/3":    {"fb27a49a012d93e9", 0x4079089759eaf0c0, 0xa64454ac8e6a84fb},
}

// pointsDigest is the FNV-64a digest of every period's fields: the
// float bits of the losses and the prediction, the policy version, and
// the drift, refit and attack flags.
func pointsDigest(pts []PeriodPoint) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flag := func(v bool) {
		if v {
			word(1)
		} else {
			word(0)
		}
	}
	for _, p := range pts {
		word(uint64(p.Period))
		for _, f := range []float64{p.Loss, p.OptLoss, p.Regret, p.CumRegret, p.Predicted} {
			word(math.Float64bits(f))
		}
		word(p.PolicyVersion)
		flag(p.Drift)
		flag(p.Mounted)
		flag(p.Raised)
		flag(p.Detected)
		h.Write([]byte(p.Refit))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestBurstOutageNeverBeatsTheReference is the regression test for a
// type that goes silent: the burst scenario's outage silences one alert
// type, and the reference solve on the true model used to cap its
// threshold at 0 and never audit it, so every strategy showed periods of
// negative regret. With the one-alert cap floor no period may. The
// other scenarios run too, unless -short, so the whole grid — every
// scenario under the three refit strategies at seeds 1–3 — checks that
// Result counts the periods whose regret is below −1e-9 and that there
// are none: no serving policy beats the reference solve. Every run's
// bits must also equal its gridPins entry.
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
				name := fmt.Sprintf("%s/%s/%d", scn, strategy, seed)
				got := gridPin{res.TraceHash, math.Float64bits(res.CumRegret), pointsDigest(res.Points)}
				if want, ok := gridPins[name]; !ok {
					t.Errorf("%s: no pin; got %q: {%q, %#x, %#x}", name, name, got.hash, got.regret, got.points)
				} else if got != want {
					t.Errorf("%s: bits moved: trace %s, cum_regret %#x (%v), points %#x; pinned %s, %#x, %#x",
						name, got.hash, got.regret, res.CumRegret, got.points, want.hash, want.regret, want.points)
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
