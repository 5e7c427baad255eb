package game_test

import (
	"context"
	"sync"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/refit"
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

// TestMasterMatchesReferenceBankPanel replays the three bank-drift
// panel games' cold CGGS solves and their warm refits after a ×1.02
// drift of the count model, master by master, through the direct
// master and the reference builder. A refit's replay starts from its
// reused columns and the cold solve's last basis.
func TestMasterMatchesReferenceBankPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("bank-panel replay takes several seconds")
	}
	masters := 0
	for _, p := range []struct {
		types int
		bank  int64
	}{{32, 1}, {40, 1}, {48, 2}} {
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
			g, _, err := workload.Scaled{Entities: 2000, AlertTypes: p.types, Seed: 1, Templates: tmpl}.Build(workload.Scale{})
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
		tv := make([]float64, p.types)
		for i := range tv {
			tv[i] = refit.TotalVariation(base.Types[i].Dist, drifted.Types[i].Dist)
		}
		thr := base.ThresholdCaps()
		inBase, err := game.NewInstance(base, budget, sample.NewBank(base.Dists(), 512, p.bank))
		if err != nil {
			t.Fatal(err)
		}
		inDrift, err := game.NewInstance(drifted, budget, sample.NewBank(drifted.Dists(), 512, p.bank))
		if err != nil {
			t.Fatal(err)
		}

		st := solver.NewSolveState(solver.CGGSOptions{})
		pol, err := st.Solve(context.Background(), inBase, thr)
		if err != nil {
			t.Fatal(err)
		}
		cold, n, err := game.ReplayMasters(inBase, pol.Q, 1, thr, nil)
		if err != nil {
			t.Fatalf("%d types, cold: %v", p.types, err)
		}
		if want := st.Stats().MasterSolves; n != want {
			t.Fatalf("%d types, cold: replayed %d masters, the solve ran %d", p.types, n, want)
		}
		masters += n

		wpol, err := st.Refit(context.Background(), inDrift, thr, tv)
		if err != nil {
			t.Fatal(err)
		}
		ws := st.WarmStats()
		if !ws.Warm {
			t.Fatalf("%d types: refit fell back cold", p.types)
		}
		_, n, err = game.ReplayMasters(inDrift, wpol.Q, ws.ColumnsReused, thr, cold)
		if err != nil {
			t.Fatalf("%d types, refit: %v", p.types, err)
		}
		if want := st.Stats().MasterSolves; n != want {
			t.Fatalf("%d types, refit: replayed %d masters, the refit ran %d", p.types, n, want)
		}
		masters += n
	}
	if masters != 148 {
		t.Fatalf("replayed %d masters, want the panel's 148", masters)
	}
}
