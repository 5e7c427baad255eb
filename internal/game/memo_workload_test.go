package game_test

import (
	"context"
	"math"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/workload"
)

// TestDeltaMemoSize pins the size of the short-prefix delta memo
// (DESIGN.md P6) after the Table V slice and after the bank panel's
// cold solves, and checks that it stays flat on a repeated solve and on
// a solve at b∧B after one at b, with the answer's bits unchanged.
func TestDeltaMemoSize(t *testing.T) {
	ctx := context.Background()
	g, _, err := workload.Build("syna", workload.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		budget float64
		memo   int
	}{{4, 233}, {10, 428}} {
		in, err := game.NewInstance(g, c.budget, src)
		if err != nil {
			t.Fatal(err)
		}
		opts := solver.ISHMOptions{Epsilon: 0.25, Inner: solver.CGGSInner, EvaluateInitial: true, Memoize: true, Workers: 2}
		first, err := solver.ISHM(ctx, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := game.DeltaMemoSize(in)
		if n != c.memo {
			t.Errorf("Table V slice at B=%v: memo holds %d deltas, want %d", c.budget, n, c.memo)
		}
		again, err := solver.ISHM(ctx, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if m := game.DeltaMemoSize(in); m != n {
			t.Errorf("repeated Table V slice at B=%v: memo went from %d to %d deltas", c.budget, n, m)
		}
		if math.Float64bits(again.Policy.Objective) != math.Float64bits(first.Policy.Objective) {
			t.Errorf("repeated Table V slice at B=%v: loss %v, first %v", c.budget, again.Policy.Objective, first.Policy.Objective)
		}
	}

	// A threshold at or above the budget never binds, and the memo keys
	// it as the budget: CGGS at b∧B after CGGS at b adds no entry.
	in, err := game.NewInstance(g, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	caps := game.Thresholds(g.ThresholdCaps())
	capped := caps.Clone()
	for i := range capped {
		capped[i] = min(capped[i], in.Budget)
	}
	atCaps, err := solver.CGGS(ctx, in, caps, solver.CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := game.DeltaMemoSize(in)
	atB, err := solver.CGGS(ctx, in, capped, solver.CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := game.DeltaMemoSize(in); m != n || n == 0 {
		t.Errorf("CGGS at %v after %v: memo went from %d to %d deltas", capped, caps, n, m)
	}
	if math.Float64bits(atB.Objective) != math.Float64bits(atCaps.Objective) {
		t.Errorf("CGGS at %v: loss %v, at %v: %v", capped, atB.Objective, caps, atCaps.Objective)
	}

	// The bank panel: a cold solve at the caps, then the same solve again.
	if testing.Short() {
		return
	}
	for _, p := range []struct {
		types int
		bank  int64
		memo  int
	}{{32, 1, 248}, {40, 1, 373}, {48, 2, 301}} {
		g, _, err := workload.Scaled{Entities: 2000, AlertTypes: p.types, Seed: 1, Templates: workload.DefaultTemplates()}.Build(workload.Scale{})
		if err != nil {
			t.Fatal(err)
		}
		var budget float64
		for _, at := range g.Types {
			budget += at.Dist.Mean() * at.Cost
		}
		in, err := game.NewInstance(g, 0.1*budget, sample.NewBank(g.Dists(), 512, p.bank))
		if err != nil {
			t.Fatal(err)
		}
		thr := g.ThresholdCaps()
		var objs [2]float64
		for i := range objs {
			pol, err := solver.CGGS(ctx, in, thr, solver.CGGSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			objs[i] = pol.Objective
			if n := game.DeltaMemoSize(in); n != p.memo {
				t.Errorf("bank panel, %d types, solve %d: memo holds %d deltas, want %d", p.types, i+1, n, p.memo)
			}
		}
		if math.Float64bits(objs[1]) != math.Float64bits(objs[0]) {
			t.Errorf("bank panel, %d types: repeated solve's loss %v, first %v", p.types, objs[1], objs[0])
		}
	}
}
