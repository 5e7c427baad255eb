package game

import (
	"math"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/sample"
)

// tinyGame builds a 2-type, 2-entity, 2-victim game with deterministic
// alert counts so expectations can be verified by hand.
func tinyGame() *Game {
	g := &Game{
		Types: []AlertType{
			{Name: "A", Cost: 1, Dist: dist.NewPoint(2)},
			{Name: "B", Cost: 1, Dist: dist.NewPoint(2)},
		},
		Entities: []Entity{{Name: "e1", PAttack: 1}, {Name: "e2", PAttack: 0.5}},
		Victims:  []string{"v1", "v2"},
	}
	g.Attacks = [][]Attack{
		{DeterministicAttack(2, 0, 5, 10, 1), DeterministicAttack(2, 1, 4, 10, 1)},
		{DeterministicAttack(2, 0, 5, 10, 1), DeterministicAttack(2, 1, 4, 10, 1)},
	}
	return g
}

func tinyInstance(t *testing.T, budget float64) *Instance {
	t.Helper()
	g := tinyGame()
	src, err := sample.NewEnumerator(g.Dists(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestValidateAcceptsSynA(t *testing.T) {
	if err := SynA().Validate(); err != nil {
		t.Fatalf("SynA invalid: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Game)
	}{
		{"no types", func(g *Game) { g.Types = nil }},
		{"no entities", func(g *Game) { g.Entities = nil }},
		{"no victims", func(g *Game) { g.Victims = nil }},
		{"attack rows mismatch", func(g *Game) { g.Attacks = g.Attacks[:1] }},
		{"bad cost", func(g *Game) { g.Types[0].Cost = 0 }},
		{"nil dist", func(g *Game) { g.Types[0].Dist = nil }},
		{"bad pe", func(g *Game) { g.Entities[0].PAttack = 1.5 }},
		{"victim count mismatch", func(g *Game) { g.Attacks[0] = g.Attacks[0][:1] }},
		{"probs length", func(g *Game) { g.Attacks[0][0].TypeProbs = []float64{1} }},
		{"probs range", func(g *Game) { g.Attacks[0][0].TypeProbs[0] = -0.1 }},
		{"probs sum", func(g *Game) { g.Attacks[0][0].TypeProbs = []float64{0.7, 0.7} }},
		{"negative penalty", func(g *Game) { g.Attacks[0][0].Penalty = -1 }},
	}
	for _, tc := range cases {
		g := tinyGame()
		tc.mutate(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid game", tc.name)
		}
	}
}

func TestThresholdCaps(t *testing.T) {
	g := SynA()
	caps := g.ThresholdCaps()
	// Type 1: mean 6, hw 5 → support top 11, cost 1 → cap 11.
	want := []float64{11, 9, 7, 7}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("caps = %v, want %v", caps, want)
		}
	}
}

// TestThresholdCapsFloorAtOneAlert pins the caps of count models that
// raise at most one alert. The attacker's own alert makes a bin hold at
// least one, so a point mass at 0 is capped like a point mass at 1: one
// audit, C_t, never 0.
func TestThresholdCapsFloorAtOneAlert(t *testing.T) {
	g := tinyGame()
	g.Types[0].Dist, g.Types[0].Cost = dist.NewPoint(0), 1.5
	g.Types[1].Dist, g.Types[1].Cost = dist.NewPoint(1), 0.7
	caps := g.ThresholdCaps()
	if len(caps) != 2 || caps[0] != 1.5 || caps[1] != 0.7 {
		t.Errorf("caps = %v, want [1.5 0.7]", caps)
	}
}

// TestThresholdCapsOfSilentWindow covers the serving path to a zero cap:
// a tracker window in which a type raised no alert freezes to a point
// mass at 0, whose cap must still buy one audit.
func TestThresholdCapsOfSilentWindow(t *testing.T) {
	est, err := dist.NewStreamEstimator(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		est.Observe(0)
	}
	d, err := est.SnapshotGaussian(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := d.Support(); lo != 0 || hi != 0 {
		t.Fatalf("silent window froze to support [%d, %d], want [0, 0]", lo, hi)
	}
	g := tinyGame()
	g.Types[0].Dist = d
	if caps := g.ThresholdCaps(); caps[0] != 1 {
		t.Errorf("silent type's cap = %v, want 1", caps[0])
	}
}

func TestPalDeterministicCounts(t *testing.T) {
	// Z = (2,2), costs 1. Budget 3, thresholds (2,2), order (A,B):
	// type A: avail 3, cap 2, z 2 → n=2, ratio 1. Spend min(2, 2)=2.
	// type B: remaining 1 → avail 1, cap 2, z 2 → n=1, ratio 0.5.
	in := tinyInstance(t, 3)
	pal := in.Pal(Ordering{0, 1}, Thresholds{2, 2})
	if math.Abs(pal[0]-1) > 1e-12 || math.Abs(pal[1]-0.5) > 1e-12 {
		t.Fatalf("pal = %v, want [1, 0.5]", pal)
	}
}

func TestPalReverseOrder(t *testing.T) {
	in := tinyInstance(t, 3)
	pal := in.Pal(Ordering{1, 0}, Thresholds{2, 2})
	if math.Abs(pal[1]-1) > 1e-12 || math.Abs(pal[0]-0.5) > 1e-12 {
		t.Fatalf("pal = %v, want [0.5, 1]", pal)
	}
}

func TestPalPartialOrdering(t *testing.T) {
	in := tinyInstance(t, 10)
	pal := in.Pal(Ordering{1}, Thresholds{2, 2})
	if pal[0] != 0 {
		t.Fatalf("type absent from ordering must have pal 0, got %v", pal[0])
	}
	if math.Abs(pal[1]-1) > 1e-12 {
		t.Fatalf("pal[1] = %v, want 1", pal[1])
	}
}

func TestPalZeroBudget(t *testing.T) {
	in := tinyInstance(t, 0)
	pal := in.Pal(Ordering{0, 1}, Thresholds{5, 5})
	if pal[0] != 0 || pal[1] != 0 {
		t.Fatalf("pal = %v, want zeros", pal)
	}
}

func TestPalZeroThreshold(t *testing.T) {
	in := tinyInstance(t, 10)
	pal := in.Pal(Ordering{0, 1}, Thresholds{0, 5})
	if pal[0] != 0 {
		t.Fatalf("pal[0] = %v, want 0 under zero threshold", pal[0])
	}
	// Type B gets the full budget because A consumed min(0, 2) = 0.
	if math.Abs(pal[1]-1) > 1e-12 {
		t.Fatalf("pal[1] = %v, want 1", pal[1])
	}
}

func TestPalZeroCountConvention(t *testing.T) {
	// Zt = 0: the attack alert itself is auditable, so detection is
	// certain when budget and threshold admit one audit.
	g := tinyGame()
	g.Types[0].Dist = dist.NewPoint(0)
	src, _ := sample.NewEnumerator(g.Dists(), 1000)
	in, err := NewInstance(g, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	pal := in.Pal(Ordering{0, 1}, Thresholds{1, 1})
	if math.Abs(pal[0]-1) > 1e-12 {
		t.Fatalf("pal[0] = %v, want 1 (Z'=max(Z,1) convention)", pal[0])
	}
}

func TestPalCaching(t *testing.T) {
	in := tinyInstance(t, 3)
	in.Pal(Ordering{0, 1}, Thresholds{2, 2})
	n := in.PalEvals()
	in.Pal(Ordering{0, 1}, Thresholds{2, 2})
	if in.PalEvals() != n {
		t.Fatal("cache miss on repeated Pal call")
	}
	in.Pal(Ordering{0, 1}, Thresholds{2, 1})
	if in.PalEvals() != n+1 {
		t.Fatal("expected exactly one extra eval")
	}
}

func TestUaRowSignAndValue(t *testing.T) {
	// Ua = −Pat·M + (1−Pat)·R − K. With pal = (1, 0.5):
	// sig A (R=5,M=10,K=1, type 0): Pat=1 → −10 + 0 − 1 = −11.
	// sig B (R=4,M=10,K=1, type 1): Pat=0.5 → −5 + 2 − 1 = −4.
	in := tinyInstance(t, 3)
	pal := in.Pal(Ordering{0, 1}, Thresholds{2, 2})
	row := in.UaRow(0, pal)
	if len(row) != 2 {
		t.Fatalf("want 2 signatures, got %d", len(row))
	}
	// Signature order within a class is canonical, not victim order, so
	// compare as a set.
	lo, hi := math.Min(row[0], row[1]), math.Max(row[0], row[1])
	if math.Abs(lo-(-11)) > 1e-9 || math.Abs(hi-(-4)) > 1e-9 {
		t.Fatalf("Ua row = %v, want {-11, -4}", row)
	}
}

func TestSignatureDeduplication(t *testing.T) {
	g := tinyGame()
	// Give e1 three victims, two of which are identical attacks.
	g.Victims = []string{"v1", "v2", "v3"}
	for e := range g.Attacks {
		g.Attacks[e] = append(g.Attacks[e], g.Attacks[e][0])
	}
	src, _ := sample.NewEnumerator(g.Dists(), 1000)
	in, err := NewInstance(g, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumSignatures(0) != 2 {
		t.Fatalf("signatures = %d, want 2 after dedup", in.NumSignatures(0))
	}
}

func TestSolveFixedSingleOrdering(t *testing.T) {
	in := tinyInstance(t, 3)
	Q := []Ordering{{0, 1}}
	res, err := in.SolveFixed(Q, Thresholds{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Only one ordering → po = 1; ue = max(−11, −4) = −4 per entity;
	// objective = 1·(−4) + 0.5·(−4) = −6.
	if math.Abs(res.Po[0]-1) > 1e-9 {
		t.Fatalf("po = %v", res.Po)
	}
	if math.Abs(res.Objective-(-6)) > 1e-9 {
		t.Fatalf("objective = %v, want -6", res.Objective)
	}
}

func TestSolveFixedMixingHelps(t *testing.T) {
	// With both orderings available the auditor can randomize; the value
	// must be no worse than either pure ordering.
	in := tinyInstance(t, 3)
	b := Thresholds{2, 2}
	pure0, err := in.SolveFixed([]Ordering{{0, 1}}, b)
	if err != nil {
		t.Fatal(err)
	}
	pure1, err := in.SolveFixed([]Ordering{{1, 0}}, b)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := in.SolveFixed([]Ordering{{0, 1}, {1, 0}}, b)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Objective > math.Min(pure0.Objective, pure1.Objective)+1e-9 {
		t.Fatalf("mixing (%v) worse than best pure (%v, %v)",
			mixed.Objective, pure0.Objective, pure1.Objective)
	}
	var sum float64
	for _, p := range mixed.Po {
		if p < -1e-9 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSolveFixedObjectiveMatchesLoss(t *testing.T) {
	in := tinyInstance(t, 3)
	b := Thresholds{2, 2}
	Q := []Ordering{{0, 1}, {1, 0}}
	res, err := in.SolveFixed(Q, b)
	if err != nil {
		t.Fatal(err)
	}
	loss := in.Loss(Q, res.Po, b)
	if math.Abs(loss-res.Objective) > 1e-8 {
		t.Fatalf("Loss = %v, LP objective = %v", loss, res.Objective)
	}
}

func TestSolveFixedErrors(t *testing.T) {
	in := tinyInstance(t, 3)
	if _, err := in.SolveFixed(nil, Thresholds{2, 2}); err == nil {
		t.Fatal("expected error for empty Q")
	}
	if _, err := in.SolveFixed([]Ordering{{0, 1}}, Thresholds{2}); err == nil {
		t.Fatal("expected error for wrong threshold length")
	}
	if _, err := in.SolveFixed([]Ordering{{0, 0}}, Thresholds{2, 2}); err == nil {
		t.Fatal("expected error for non-permutation")
	}

	// SolveFixedPals: one pal vector of |T| entries per ordering. A
	// short vector used to index past its end inside the master build.
	Q := AllOrderings(2)
	pals := in.PalBatch(Q, Thresholds{2, 2})
	if _, err := in.SolveFixedPals(Q, pals); err != nil {
		t.Fatalf("well-formed pal vectors: %v", err)
	}
	if _, err := in.SolveFixedPals(Q, pals[:1]); err == nil {
		t.Fatal("expected error for fewer pal vectors than orderings")
	}
	for _, bad := range [][]float64{nil, {0.5}, {0.5, 0.5, 0.5}} {
		if _, err := in.SolveFixedPals(Q, [][]float64{pals[0], bad}); err == nil {
			t.Fatalf("expected error for a pal vector of %d entries", len(bad))
		}
	}
}

func TestReducedCostNonNegativeAtOptimum(t *testing.T) {
	// Solving over ALL orderings means no column can improve: every
	// ordering's reduced cost must be ≥ 0 (up to tolerance).
	in := tinyInstance(t, 3)
	b := Thresholds{2, 2}
	all := AllOrderings(2)
	res, err := in.SolveFixed(all, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range in.ReducedCosts(res, in.PalBatch(all, b)) {
		if rc < -1e-7 {
			t.Fatalf("ordering %v has negative reduced cost %v at optimum", all[i], rc)
		}
	}
}

func TestNoAttackOptionClampsLossAtZero(t *testing.T) {
	g := tinyGame()
	g.AllowNoAttack = true
	// Make every attack unattractive.
	for e := range g.Attacks {
		for v := range g.Attacks[e] {
			g.Attacks[e][v].Benefit = 0.1
			g.Attacks[e][v].Penalty = 100
		}
	}
	src, _ := sample.NewEnumerator(g.Dists(), 1000)
	in, err := NewInstance(g, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.SolveFixed(AllOrderings(2), Thresholds{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective) > 1e-8 {
		t.Fatalf("objective = %v, want 0 (all adversaries deterred)", res.Objective)
	}
}

func TestInstanceConstructorErrors(t *testing.T) {
	g := tinyGame()
	src, _ := sample.NewEnumerator(g.Dists(), 1000)
	if _, err := NewInstance(g, -1, src); err == nil {
		t.Fatal("expected error for negative budget")
	}
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewInstance(g, budget, src); err == nil {
			t.Fatalf("expected error for budget %v", budget)
		}
	}
	if _, err := NewInstance(g, 1, nil); err == nil {
		t.Fatal("expected error for nil source")
	}
	bad := tinyGame()
	bad.Types = nil
	if _, err := NewInstance(bad, 1, src); err == nil {
		t.Fatal("expected validation error")
	}
	// tinyGame has two alert types; a one-count realization is malformed.
	narrow := &weightedSource{rows: []sample.Realization{{2, 2}, {1}}, ws: []float64{0.5, 0.5}}
	if _, err := NewInstance(g, 1, narrow); err == nil {
		t.Fatal("expected error for a realization narrower than |T|")
	}
}

func TestSynAShape(t *testing.T) {
	g := SynA()
	if len(g.Types) != 4 || len(g.Entities) != 5 || len(g.Victims) != 8 {
		t.Fatalf("SynA shape %d/%d/%d", len(g.Types), len(g.Entities), len(g.Victims))
	}
	// e1's access to r1 is benign: no alert, zero benefit.
	a := g.Attacks[0][0]
	for t2, p := range a.TypeProbs {
		if p != 0 {
			t.Fatalf("benign access has P[%d] = %v", t2, p)
		}
	}
	if a.Benefit != 0 {
		t.Fatalf("benign benefit = %v", a.Benefit)
	}
	// e1 accessing r8 triggers type 1 (index 0) with benefit 3.4.
	a = g.Attacks[0][7]
	if a.TypeProbs[0] != 1 || a.Benefit != 3.4 {
		t.Fatalf("e1→r8 attack = %+v", a)
	}
}
