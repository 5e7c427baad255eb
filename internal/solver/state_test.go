package solver

import (
	"context"
	"math"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/game"
	"auditgame/internal/sample"
)

// driftedGame is testGame with the count model nudged: the empirical
// count tables gain extra mass on one value per type, the kind of shift
// a window snapshot produces. Attack structure is untouched, so the
// instance stays structurally compatible with the original.
func driftedGame() *game.Game {
	g := testGame()
	g.Types[0].Dist = dist.NewEmpirical([]int{1, 2, 2})
	g.Types[1].Dist = dist.NewEmpirical([]int{1, 3, 3})
	g.Types[2].Dist = dist.NewEmpirical([]int{2, 2, 3})
	return g
}

func instanceOf(t *testing.T, g *game.Game, budget float64) *game.Instance {
	t.Helper()
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

func TestSolveStateWarmRefitMatchesColdExactly(t *testing.T) {
	// With the exhaustive oracle both paths are exact, so the warm refit
	// must land on the same optimal loss as a cold solve of the drifted
	// instance to LP tolerance.
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	opts := CGGSOptions{ExhaustiveOracle: true}

	for _, budget := range []float64{1, 2, 3} {
		st := NewSolveState(opts)
		if _, err := st.Solve(ctx, instanceOf(t, testGame(), budget), b); err != nil {
			t.Fatal(err)
		}
		if st.WarmStats().Warm {
			t.Fatal("cold solve reported warm")
		}

		din := instanceOf(t, driftedGame(), budget)
		warm, err := st.Refit(ctx, din, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.WarmStats().Warm {
			t.Fatal("compatible refit did not run warm")
		}
		cold, err := CGGS(ctx, instanceOf(t, driftedGame(), budget), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
			t.Fatalf("budget %v: warm refit loss %.12f != cold loss %.12f (|Δ|=%g)",
				budget, warm.Objective, cold.Objective, d)
		}
		// The loss reported by the master must agree with the full
		// best-response evaluation of the returned policy.
		if l := din.Loss(warm.Q, warm.Po, warm.Thresholds); math.Abs(l-warm.Objective) > 1e-7 {
			t.Fatalf("budget %v: warm policy loss %.12f != objective %.12f", budget, l, warm.Objective)
		}
	}
}

func TestSolveStateRefitReusesWork(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	coldRounds := st.Stats().MasterSolves

	din := instanceOf(t, driftedGame(), 2)
	if _, err := st.Refit(ctx, din, b, nil); err != nil {
		t.Fatal(err)
	}
	ws := st.WarmStats()
	if !ws.Warm {
		t.Fatal("refit did not run warm")
	}
	if ws.ColumnsReused == 0 {
		t.Fatal("warm refit reused no columns")
	}
	if ws.PricingRounds >= coldRounds && coldRounds > 2 {
		t.Fatalf("warm refit took %d pricing rounds, cold solve took %d", ws.PricingRounds, coldRounds)
	}
}

func TestSolveStateStructuralChangeFallsBackCold(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}

	// Budget change is structural: the fingerprint differs, Refit must
	// solve cold.
	if _, err := st.Refit(ctx, instanceOf(t, testGame(), 3), b, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("budget change still ran warm")
	}

	// Threshold change is structural too.
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Refit(ctx, instanceOf(t, testGame(), 2), game.Thresholds{1, 2, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("threshold change still ran warm")
	}

	// Attack change (entity classes differ) is structural.
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	g := testGame()
	g.Attacks[0][0].Benefit = 9.9
	if _, err := st.Refit(ctx, instanceOf(t, g, 2), b, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("attack change still ran warm")
	}
}

func TestSolveStateNilTVRunsWarmUnscreened(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}
	pool := st.Columns()
	if _, err := st.Refit(ctx, instanceOf(t, driftedGame(), 2), b, nil); err != nil {
		t.Fatal(err)
	}
	ws := st.WarmStats()
	if !ws.Warm {
		t.Fatal("nil-TV refit did not run warm")
	}
	if ws.ColumnsParked != 0 {
		t.Fatalf("nil TV must disable screening, but %d columns were parked", ws.ColumnsParked)
	}
	if ws.ColumnsReused != pool {
		t.Fatalf("reused %d columns, pool had %d", ws.ColumnsReused, pool)
	}
}

func TestSolveStateRepeatedRefitsStayBounded(t *testing.T) {
	// Alternate between two models for many refits: the pool must stay
	// within MaxColumns and every solve must stay exact-equivalent.
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	opts := CGGSOptions{ExhaustiveOracle: true}
	st := NewSolveState(opts)
	games := []*game.Game{testGame(), driftedGame()}
	if _, err := st.Solve(ctx, instanceOf(t, games[0], 2), b); err != nil {
		t.Fatal(err)
	}
	cap := opts.withDefaults(3).MaxColumns
	for i := 1; i <= 6; i++ {
		g := games[i%2]
		in := instanceOf(t, g, 2)
		warm, err := st.Refit(ctx, in, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := CGGS(ctx, instanceOf(t, g, 2), b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(warm.Objective - cold.Objective); d > 1e-9 {
			t.Fatalf("refit %d: warm %.12f != cold %.12f", i, warm.Objective, cold.Objective)
		}
		if st.Columns() > cap {
			t.Fatalf("refit %d: pool grew to %d (> cap %d)", i, st.Columns(), cap)
		}
	}
}
