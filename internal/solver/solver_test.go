package solver

import (
	"context"
	"errors"
	"math"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/game"
	"auditgame/internal/sample"
)

// testGame builds a 3-type game small enough for brute force in tests:
// joint support 2·2·2 = 8 realizations, 3 entities, 4 victims.
func testGame() *game.Game {
	g := &game.Game{
		Types: []game.AlertType{
			{Name: "T1", Cost: 1, Dist: dist.NewEmpirical([]int{1, 2})},
			{Name: "T2", Cost: 1, Dist: dist.NewEmpirical([]int{1, 3})},
			{Name: "T3", Cost: 1, Dist: dist.NewEmpirical([]int{2, 2})},
		},
		Entities: []game.Entity{
			{Name: "e1", PAttack: 1},
			{Name: "e2", PAttack: 1},
			{Name: "e3", PAttack: 0.5},
		},
		Victims: []string{"v1", "v2", "v3", "v4"},
	}
	mk := func(t int, benefit float64) game.Attack {
		return game.DeterministicAttack(3, t, benefit, 4, 0.4)
	}
	g.Attacks = [][]game.Attack{
		{mk(0, 3.0), mk(1, 3.5), mk(2, 4.0), mk(-1, 0)},
		{mk(1, 3.5), mk(1, 3.5), mk(0, 3.0), mk(2, 4.0)},
		{mk(2, 4.0), mk(0, 3.0), mk(2, 4.0), mk(1, 3.5)},
	}
	return g
}

func testInstance(t *testing.T, budget float64) *game.Instance {
	t.Helper()
	g := testGame()
	src, err := sample.NewEnumerator(g.Dists(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	in, err := game.NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCGGSExhaustiveOracleMatchesExact(t *testing.T) {
	for _, budget := range []float64{1, 2, 3, 5} {
		in := testInstance(t, budget)
		b := game.Thresholds{2, 2, 2}
		exact, err := Exact(context.Background(), in, b)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := CGGS(context.Background(), in, b, CGGSOptions{ExhaustiveOracle: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cg.Objective-exact.Objective) > 1e-6 {
			t.Fatalf("B=%v: CGGS(exhaustive) %v != exact %v", budget, cg.Objective, exact.Objective)
		}
		if len(cg.Q) > len(exact.Q) {
			t.Fatalf("column generation used more columns (%d) than the full LP (%d)", len(cg.Q), len(exact.Q))
		}
	}
}

func TestCGGSGreedyWithinTolerance(t *testing.T) {
	for _, budget := range []float64{1, 2, 3, 5} {
		in := testInstance(t, budget)
		b := game.Thresholds{2, 2, 2}
		exact, err := Exact(context.Background(), in, b)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := CGGS(context.Background(), in, b, CGGSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cg.Objective < exact.Objective-1e-7 {
			t.Fatalf("B=%v: CGGS %v beat the exact LP %v — impossible", budget, cg.Objective, exact.Objective)
		}
		scale := math.Max(1, math.Abs(exact.Objective))
		if cg.Objective > exact.Objective+0.15*scale {
			t.Fatalf("B=%v: greedy CGGS %v far from exact %v", budget, cg.Objective, exact.Objective)
		}
	}
}

func TestCGGSProbabilitiesFormDistribution(t *testing.T) {
	in := testInstance(t, 3)
	cg, err := CGGS(context.Background(), in, game.Thresholds{2, 3, 2}, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range cg.Po {
		if p < -1e-9 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestCGGSWithStatsAccounting(t *testing.T) {
	in := testInstance(t, 3)
	b := game.Thresholds{2, 3, 2}
	pol, stats, err := CGGSWithStats(context.Background(), in, b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Columns != len(pol.Q) {
		t.Fatalf("stats report %d columns, policy has %d", stats.Columns, len(pol.Q))
	}
	// One master solve per pool size, from 1 column up to the final set.
	if stats.MasterSolves != stats.Columns {
		t.Fatalf("%d master solves for %d columns", stats.MasterSolves, stats.Columns)
	}
	if stats.Pivots <= 0 {
		t.Fatalf("pivots = %d", stats.Pivots)
	}
	if stats.PalEvals <= 0 {
		t.Fatalf("pal evals = %d", stats.PalEvals)
	}
	// The plain CGGS wrapper must agree with the stats variant.
	in2 := testInstance(t, 3)
	pol2, err := CGGS(context.Background(), in2, b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pol2.Objective != pol.Objective {
		t.Fatalf("CGGS and CGGSWithStats disagree: %v vs %v", pol2.Objective, pol.Objective)
	}
}

func TestCGGSInitialOrderingValidation(t *testing.T) {
	in := testInstance(t, 3)
	_, err := CGGS(context.Background(), in, game.Thresholds{2, 2, 2}, CGGSOptions{Initial: game.Ordering{0, 0, 1}})
	if err == nil {
		t.Fatal("expected error for invalid initial ordering")
	}
}

func TestCGGSDeterministic(t *testing.T) {
	in := testInstance(t, 3)
	b := game.Thresholds{2, 2, 2}
	a, err := CGGS(context.Background(), in, b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CGGS(context.Background(), in, b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Objective-c.Objective) > 1e-12 {
		t.Fatalf("non-deterministic: %v vs %v", a.Objective, c.Objective)
	}
}

func TestExactObjectiveConsistentWithLoss(t *testing.T) {
	in := testInstance(t, 2)
	b := game.Thresholds{1, 2, 1}
	pol, err := Exact(context.Background(), in, b)
	if err != nil {
		t.Fatal(err)
	}
	loss := in.Loss(pol.Q, pol.Po, b)
	if math.Abs(loss-pol.Objective) > 1e-8 {
		t.Fatalf("Loss %v != objective %v", loss, pol.Objective)
	}
}

func TestMixedPolicySupport(t *testing.T) {
	in := testInstance(t, 3)
	pol, err := Exact(context.Background(), in, game.Thresholds{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	os, ps := pol.Support()
	if len(os) == 0 {
		t.Fatal("empty support")
	}
	var sum float64
	for i, p := range ps {
		if i > 0 && p > ps[i-1] {
			t.Fatal("support not sorted by probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("support probabilities sum to %v", sum)
	}
}

func TestBruteForceBeatsOrMatchesEverything(t *testing.T) {
	in := testInstance(t, 3)
	bf, err := BruteForce(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Explored == 0 || bf.GridSize == 0 {
		t.Fatal("no exploration accounting")
	}
	// The optimum must be no worse than a few arbitrary grid policies.
	for _, b := range []game.Thresholds{{2, 3, 2}, {1, 1, 1}, {2, 0, 2}, {0, 3, 2}} {
		pol, err := Exact(context.Background(), in, b)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Policy.Objective > pol.Objective+1e-9 {
			t.Fatalf("brute force %v worse than grid point %v at b=%v", bf.Policy.Objective, pol.Objective, b)
		}
	}
}

func TestBruteForceBudgetMonotone(t *testing.T) {
	// More budget can never hurt the auditor (Table III's monotone
	// objective column).
	var prev float64 = math.Inf(1)
	for _, budget := range []float64{1, 2, 4, 6} {
		in := testInstance(t, budget)
		bf, err := BruteForce(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Policy.Objective > prev+1e-9 {
			t.Fatalf("objective increased with budget: %v after %v", bf.Policy.Objective, prev)
		}
		prev = bf.Policy.Objective
	}
}

func TestBruteForceRejectsManyTypes(t *testing.T) {
	g := testGame()
	for i := 0; i < 5; i++ {
		g.Types = append(g.Types, game.AlertType{Name: "X", Cost: 1, Dist: dist.NewPoint(1)})
	}
	for e := range g.Attacks {
		for v := range g.Attacks[e] {
			g.Attacks[e][v].TypeProbs = make([]float64, len(g.Types))
		}
	}
	src, _ := sample.NewBank(g.Dists(), 8, 1), error(nil)
	in, err := game.NewInstance(g, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BruteForce(context.Background(), in); err == nil {
		t.Fatal("expected refusal for |T| > 6")
	}
}

func TestISHMFindsNearOptimal(t *testing.T) {
	in := testInstance(t, 3)
	bf, err := BruteForce(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ISHM(context.Background(), in, ISHMOptions{Epsilon: 0.1, Inner: ExactInner, EvaluateInitial: true, Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	// ISHM may beat the integer grid slightly (fractional thresholds
	// consume less budget) or trail it (heuristic); both within a small
	// margin.
	scale := math.Max(1, math.Abs(bf.Policy.Objective))
	if math.Abs(res.Policy.Objective-bf.Policy.Objective) > 0.15*scale {
		t.Fatalf("ISHM %v far from brute force %v", res.Policy.Objective, bf.Policy.Objective)
	}
	if res.Evaluations == 0 || res.UniqueEvaluations == 0 {
		t.Fatal("no exploration accounting")
	}
	if res.UniqueEvaluations > res.Evaluations {
		t.Fatal("unique > total evaluations")
	}
}

func TestISHMNeverWorseThanInitial(t *testing.T) {
	in := testInstance(t, 2)
	caps := game.Thresholds(in.G.ThresholdCaps())
	initial, err := Exact(context.Background(), in, caps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ISHM(context.Background(), in, ISHMOptions{Epsilon: 0.25, Inner: ExactInner, EvaluateInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.Objective > initial.Objective+1e-9 {
		t.Fatalf("ISHM %v worse than initial %v", res.Policy.Objective, initial.Objective)
	}
}

func TestISHMEpsilonValidation(t *testing.T) {
	in := testInstance(t, 2)
	for _, eps := range []float64{0, -0.5, 1, 2} {
		if _, err := ISHM(context.Background(), in, ISHMOptions{Epsilon: eps}); err == nil {
			t.Fatalf("expected error for epsilon %v", eps)
		}
	}
}

func TestISHMSmallerEpsilonNoWorse(t *testing.T) {
	// Finer steps explore a superset of ratios; on this instance the
	// finer search should not be substantially worse.
	in := testInstance(t, 3)
	fine, err := ISHM(context.Background(), in, ISHMOptions{Epsilon: 0.1, Inner: ExactInner, EvaluateInitial: true, Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := ISHM(context.Background(), in, ISHMOptions{Epsilon: 0.5, Inner: ExactInner, EvaluateInitial: true, Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Policy.Objective > coarse.Policy.Objective+0.25 {
		t.Fatalf("ε=0.1 (%v) much worse than ε=0.5 (%v)", fine.Policy.Objective, coarse.Policy.Objective)
	}
	if fine.Evaluations <= coarse.Evaluations {
		t.Fatalf("finer ε should evaluate more vectors: %d vs %d", fine.Evaluations, coarse.Evaluations)
	}
}

func TestCombinations(t *testing.T) {
	got := combinations(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combinations(4,2) = %v", got)
			}
		}
	}
	if combinations(3, 0) != nil || combinations(3, 4) != nil {
		t.Fatal("degenerate cases should be nil")
	}
	if len(combinations(3, 3)) != 1 {
		t.Fatal("n choose n should be a single combination")
	}
}

func TestBenefitOrdering(t *testing.T) {
	o := BenefitOrdering(testGame())
	// Max benefits: T1=3.0, T2=3.5, T3=4.0 → order T3, T2, T1.
	want := game.Ordering{2, 1, 0}
	if o.Key() != want.Key() {
		t.Fatalf("BenefitOrdering = %v, want %v", o, want)
	}
}

func TestBaselinesNeverBeatOptimum(t *testing.T) {
	in := testInstance(t, 3)
	bf, err := BruteForce(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	opt := bf.Policy.Objective

	ro := RandomOrderLoss(in, bf.Policy.Thresholds, 100, 7)
	if ro < opt-1e-7 {
		t.Fatalf("random orders (%v) beat the optimum (%v)", ro, opt)
	}
	rt, err := RandomThresholdLoss(context.Background(), in, 20, 7, ExactInner)
	if err != nil {
		t.Fatal(err)
	}
	if rt < opt-1e-7 {
		t.Fatalf("random thresholds (%v) beat the optimum (%v)", rt, opt)
	}
	gb := GreedyBenefitLoss(in)
	if gb < opt-1e-7 {
		t.Fatalf("greedy benefit (%v) beat the optimum (%v)", gb, opt)
	}
}

func TestRandomThresholdLossValidation(t *testing.T) {
	in := testInstance(t, 2)
	if _, err := RandomThresholdLoss(context.Background(), in, 0, 1, ExactInner); err == nil {
		t.Fatal("expected error for n = 0")
	}
}

func TestRandomThresholdLossDeterministicSeed(t *testing.T) {
	in := testInstance(t, 2)
	a, err := RandomThresholdLoss(context.Background(), in, 5, 3, ExactInner)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomThresholdLoss(context.Background(), in, 5, 3, ExactInner)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

// TestRandomThresholdLossDraws pins the baseline's draws below Σ caps,
// and checks that a budget covering every cap plays the caps (the
// rejection sampler could never hit their sum) and that a cancelled
// context stops a draw that would take forever.
func TestRandomThresholdLossDraws(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ budget, want float64 }{{2, 5.927807486631018}, {3, 4.875}} {
		got, err := RandomThresholdLoss(ctx, testInstance(t, c.budget), 5, 3, ExactInner)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("budget %v: loss %v, want %v", c.budget, got, c.want)
		}
	}

	in := testInstance(t, 14) // 2 × Σ caps = 2 × (2+3+2)
	got, err := RandomThresholdLoss(ctx, in, 20, 3, ExactInner)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := ExactInner(ctx, in, game.Thresholds(in.G.ThresholdCaps()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-pol.Objective) > 1e-12 {
		t.Fatalf("saturated budget: loss %v, want the caps' %v", got, pol.Objective)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RandomThresholdLoss(cancelled, testInstance(t, 7-1e-6), 1, 3, ExactInner); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled draw returned %v, want context.Canceled", err)
	}
}

func TestSampleOrderingsDistinct(t *testing.T) {
	os := sampleOrderings(8, 50, 3)
	if len(os) != 50 {
		t.Fatalf("got %d orderings", len(os))
	}
	seen := map[string]bool{}
	for _, o := range os {
		if !o.ValidPermutation(8) {
			t.Fatalf("%v is not a permutation", o)
		}
		if seen[o.Key()] {
			t.Fatalf("duplicate ordering %v", o)
		}
		seen[o.Key()] = true
	}
}
