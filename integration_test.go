package auditgame_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"auditgame"
)

// solveISHMOnce solves in by ISHM on a throwaway Auditor session.
func solveISHMOnce(t *testing.T, in *auditgame.Instance, cfg auditgame.ISHMConfig) *auditgame.ISHMResult {
	t.Helper()
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{Instance: in, ISHM: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.ISHM
}

// TestFullPipelineEMR drives the complete system through the public API:
// simulate hospital traffic, fit the workload, build and solve the game,
// package the policy, serialize it, and operate it against fresh alert
// days — asserting the invariants a deployment relies on at every stage.
func TestFullPipelineEMR(t *testing.T) {
	// 1. Workload synthesis and TDMT classification.
	ds, err := auditgame.SimulateEMR(auditgame.EMRConfig{
		Days: 12, Employees: 100, PairsPerType: 25, BenignPerDay: 300, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Log.Len() == 0 || ds.Benign == 0 {
		t.Fatal("simulation produced no traffic")
	}

	// 2. Game construction from the log.
	g, err := auditgame.BuildEMRGame(ds, auditgame.EMRGameConfig{
		Employees: 25, Patients: 25, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Solve at two budgets; more budget can never hurt.
	losses := make([]float64, 0, 2)
	var solved *auditgame.MixedPolicy
	for _, budget := range []float64{15, 45} {
		in, err := auditgame.NewInstance(g, budget, auditgame.SourceOptions{BankSize: 250, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		res := solveISHMOnce(t, in, auditgame.ISHMConfig{Epsilon: 0.25, MaxSubset: 2})
		losses = append(losses, res.Policy.Objective)
		solved = res.Policy

		// The solved policy must beat the non-strategic baseline.
		if gb := auditgame.BaselineGreedyBenefit(in); res.Policy.Objective > gb+1e-6 {
			t.Fatalf("B=%v: solved policy (%v) worse than greedy baseline (%v)",
				budget, res.Policy.Objective, gb)
		}
	}
	if losses[1] > losses[0]+1e-6 {
		t.Fatalf("loss increased with budget: %v", losses)
	}

	// 4. Package, serialize, reload.
	pol := auditgame.PolicyFrom(g, 45, solved)
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := auditgame.LoadPolicy(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 5. Operate against the original log's realized days.
	r := rand.New(rand.NewSource(24))
	for day := 0; day < ds.Log.Days(); day++ {
		counts, err := auditgame.CountsForDay(ds.Log, day)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := reloaded.Select(counts, r)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Spent > reloaded.Budget+1e-9 {
			t.Fatalf("day %d overspent: %v > %v", day, sel.Spent, reloaded.Budget)
		}
		for typ, chosen := range sel.Chosen {
			if len(chosen) > counts[typ] {
				t.Fatalf("day %d type %d: selected %d of %d alerts", day, typ, len(chosen), counts[typ])
			}
		}
	}
}

// TestFullPipelineJSONConfig drives the practitioner path: a JSON game
// config through solve, non-zero-sum and quantal evaluation.
func TestFullPipelineJSONConfig(t *testing.T) {
	g, err := auditgame.DecodeGameJSON(bytes.NewReader([]byte(auditgame.GameTemplateJSON())))
	if err != nil {
		t.Fatal(err)
	}
	in, err := auditgame.NewInstance(g, 4, auditgame.SourceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := solveISHMOnce(t, in, auditgame.ISHMConfig{Epsilon: 0.2, ExactInner: true})

	// Zero-sum loss and the nil-lossFn non-zero-sum evaluation agree.
	nz, err := auditgame.AuditorLossNonZeroSum(in, res.Policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nz-auditgame.Loss(in, res.Policy)) > 1e-9 {
		t.Fatalf("non-zero-sum(nil) %v != zero-sum loss %v", nz, auditgame.Loss(in, res.Policy))
	}

	// Quantal loss approaches the rational loss from below as λ grows.
	prev := math.Inf(-1)
	for _, lambda := range []float64{0, 1, 8, 1e6} {
		q, err := auditgame.QuantalLoss(in, res.Policy, auditgame.QuantalConfig{Lambda: lambda})
		if err != nil {
			t.Fatal(err)
		}
		if q < prev-1e-9 {
			t.Fatalf("quantal loss decreased in λ: %v after %v", q, prev)
		}
		prev = q
	}
	if math.Abs(prev-auditgame.Loss(in, res.Policy)) > 1e-6 {
		t.Fatalf("λ→∞ quantal (%v) should equal the rational loss (%v)", prev, auditgame.Loss(in, res.Policy))
	}
}
