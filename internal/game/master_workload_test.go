package game_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/workload"
)

// TestMasterMatchesReferenceTableV captures every CGGS solve of the
// Table V slice (ISHM with the CGGS inner solver on Syn A at B = 4 and
// B = 10, ε = 0.25) through an Inner wrapper and replays each master by
// master through the direct master and the reference builder.
func TestMasterMatchesReferenceTableV(t *testing.T) {
	g, _, err := workload.Build("syna", workload.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		in *game.Instance
		b  game.Thresholds
		q  []game.Ordering
	}
	var mu sync.Mutex
	var calls []call
	inner := func(ctx context.Context, in *game.Instance, b game.Thresholds) (*solver.MixedPolicy, error) {
		pol, err := solver.CGGSInner(ctx, in, b)
		if err == nil {
			mu.Lock()
			calls = append(calls, call{in, b.Clone(), pol.Q})
			mu.Unlock()
		}
		return pol, err
	}
	for _, budget := range []float64{4, 10} {
		in, err := game.NewInstance(g, budget, src)
		if err != nil {
			t.Fatal(err)
		}
		opts := solver.ISHMOptions{Epsilon: 0.25, Inner: inner, EvaluateInitial: true, Memoize: true, Workers: 2}
		if _, err := solver.ISHM(context.Background(), in, opts); err != nil {
			t.Fatal(err)
		}
	}
	masters := 0
	for _, c := range calls {
		_, n, err := game.ReplayMasters(c.in, c.q, 1, c.b, nil)
		if err != nil {
			t.Fatalf("B=%v b=%v: %v", c.in.Budget, c.b, err)
		}
		masters += n
	}
	if masters != 536 {
		t.Fatalf("replayed %d masters over %d CGGS solves, want the slice's 536", masters, len(calls))
	}
}

// panelSolve is one pinned solve of a bank-panel game: the objective's
// float bits and the solve's work counts.
type panelSolve struct {
	objective                uint64
	masters, pivots, columns int
	reused                   int // warm refits only
}

// TestMasterMatchesReferenceBankPanel replays the three bank-drift
// panel games' cold CGGS solves and their warm refits after a ×1.02
// drift of the count model, master by master, through the direct
// master and the reference builder. A refit's replay starts from its
// reused columns and the cold solve's last basis. Each solve's
// objective bits and work counts are pinned, so a change to the warm
// path that moves any answer or any pivot fails here. A refit's pivots
// include its first master's install and auxiliary pivots.
func TestMasterMatchesReferenceBankPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("bank-panel replay takes several seconds")
	}
	masters := 0
	for _, p := range []struct {
		types      int
		bank       int64
		cold, warm panelSolve
	}{
		{32, 1, panelSolve{0x40c806039c94fd8b, 33, 2029, 33, 0}, panelSolve{0x40c81c66d896544d, 7, 559, 39, 33}},
		{40, 1, panelSolve{0x40c805403a521368, 38, 2920, 38, 0}, panelSolve{0x40c80fe80a7e3c58, 12, 1056, 49, 38}},
		{48, 2, panelSolve{0x40c803c0153f1714, 48, 4400, 48, 0}, panelSolve{0x40c80697b05a2a46, 10, 1133, 57, 48}},
	} {
		name := fmt.Sprintf("%d types", p.types)
		r := solveAndRefit(t, name, p.types, 1, p.bank)
		checkPanelSolve(t, name+", cold", r.cold, r.coldStats, 0, p.cold)
		checkPanelSolve(t, name+", warm", r.warm, r.warmStats, r.reused, p.warm)
		masters += r.masters
	}
	if masters != 148 {
		t.Fatalf("replayed %d masters, want the panel's 148", masters)
	}
}

// TestBankDriftStallPairsRefitWarm refits the seven draws of the
// bank-drift recipe (game seed s, bank seed 7s+3) whose refits used to
// stop at the simplex iteration limit: the first master's warm basis
// failed its repair, and phase 1 restarted from the crash basis over
// the whole pool and stalled after about 100,000 pivots. Each must now
// refit warm, to a loss no worse than the cold policy's on the drifted
// instance, with every master of both solves replayed and certified.
func TestBankDriftStallPairsRefitWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("seven bank-game solves and refits take a few seconds")
	}
	for _, p := range []struct {
		types int
		seed  int64
	}{{40, 15}, {40, 31}, {48, 13}, {48, 25}, {48, 27}, {48, 30}, {48, 31}} {
		solveAndRefit(t, fmt.Sprintf("%d types, game seed %d", p.types, p.seed), p.types, p.seed, 7*p.seed+3)
	}
}

// refitRun is a cold solve and the warm refit that follows it.
type refitRun struct {
	cold, warm           *solver.MixedPolicy
	coldStats, warmStats solver.CGGSStats
	reused               int // columns the refit reused
	masters              int // masters replayed, both solves
}

// solveAndRefit builds the bank-drift recipe's game — 2,000 entities
// at the given type count and game seed, a 512-realization bank with
// the given seed, budget a tenth of the expected audit cost,
// thresholds at the caps — cold-solves it, refits after a ×1.02 drift
// of every count template's rate, and replays both solves master by
// master through ReplayMasters, which certifies every master. The
// refit must run warm and reach a loss no worse than the cold mixed
// strategy's under the drifted model: its pool starts with the cold
// solve's columns (the bank-drift benchmark's check).
func solveAndRefit(t *testing.T, name string, types int, gameSeed, bankSeed int64) refitRun {
	t.Helper()
	mk := func(scale float64) *game.Game {
		tmpl := workload.DefaultTemplates()
		for i := range tmpl {
			switch tmpl[i].Spec.Kind {
			case "gaussian":
				tmpl[i].Spec.Mean *= scale
			case "poisson":
				tmpl[i].Spec.Lambda *= scale
			}
		}
		g, _, err := workload.Scaled{Entities: 2000, AlertTypes: types, Seed: gameSeed, Templates: tmpl}.Build(workload.Scale{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	base, drifted := mk(1), mk(1.02)
	var budget float64
	for _, at := range base.Types {
		budget += at.Dist.Mean() * at.Cost
	}
	budget *= 0.1
	thr := base.ThresholdCaps()
	inBase, err := game.NewInstance(base, budget, sample.NewBank(base.Dists(), 512, bankSeed))
	if err != nil {
		t.Fatal(err)
	}
	inDrift, err := game.NewInstance(drifted, budget, sample.NewBank(drifted.Dists(), 512, bankSeed))
	if err != nil {
		t.Fatal(err)
	}

	st := solver.NewSolveState(solver.CGGSOptions{})
	pol, err := st.Solve(context.Background(), inBase, thr)
	if err != nil {
		t.Fatalf("%s, cold: %v", name, err)
	}
	r := refitRun{cold: pol, coldStats: st.Stats()}
	wpol, err := st.Refit(context.Background(), inDrift, thr, nil)
	if err != nil {
		t.Fatalf("%s, refit: %v", name, err)
	}
	ws := st.WarmStats()
	if !ws.Warm {
		t.Fatalf("%s: refit fell back cold", name)
	}
	r.warm, r.warmStats, r.reused = wpol, st.Stats(), ws.ColumnsReused
	if seeded := inDrift.Loss(pol.Q, pol.Po, thr); wpol.Objective > seeded+1e-7*math.Max(1, math.Abs(seeded)) {
		t.Errorf("%s: warm loss %.17g is worse than the cold policy's %.17g on the drifted instance", name, wpol.Objective, seeded)
	}

	cold, n, err := game.ReplayMasters(inBase, pol.Q, 1, thr, nil)
	if err != nil {
		t.Fatalf("%s, cold: %v", name, err)
	}
	if n != r.coldStats.MasterSolves {
		t.Fatalf("%s, cold: replayed %d masters, the solve ran %d", name, n, r.coldStats.MasterSolves)
	}
	_, nw, err := game.ReplayMasters(inDrift, wpol.Q, ws.ColumnsReused, thr, cold)
	if err != nil {
		t.Fatalf("%s, refit: %v", name, err)
	}
	if nw != r.warmStats.MasterSolves {
		t.Fatalf("%s, refit: replayed %d masters, the refit ran %d", name, nw, r.warmStats.MasterSolves)
	}
	r.masters = n + nw
	return r
}

// checkPanelSolve compares one bank-panel solve against its pinned
// objective bits and work counts.
func checkPanelSolve(t *testing.T, name string, pol *solver.MixedPolicy, stats solver.CGGSStats, reused int, want panelSolve) {
	t.Helper()
	got := panelSolve{math.Float64bits(pol.Objective), stats.MasterSolves, stats.Pivots, stats.Columns, reused}
	if got != want {
		t.Errorf("%s: got objective %#x (%.17g), %d masters, %d pivots, %d columns, %d reused; want %#x, %d, %d, %d, %d",
			name, got.objective, pol.Objective, got.masters, got.pivots, got.columns, got.reused,
			want.objective, want.masters, want.pivots, want.columns, want.reused)
	}
}
