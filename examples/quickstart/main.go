// Quickstart: define a small audit game, solve it, and print the
// deployable policy as JSON.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"auditgame"
)

func main() {
	// A toy deployment with two alert types. Daily benign counts follow
	// the fitted distributions; auditing a "masquerade" alert takes
	// twice the effort of an "after-hours" one.
	g := &auditgame.Game{
		Types: []auditgame.AlertType{
			{Name: "after-hours access", Cost: 1, Dist: auditgame.GaussianCounts(6, 2, 0.995)},
			{Name: "masquerade login", Cost: 2, Dist: auditgame.PoissonCounts(3, 0.999)},
		},
		Entities: []auditgame.Entity{
			{Name: "contractor", PAttack: 0.3},
			{Name: "dba", PAttack: 0.1},
		},
		Victims:       []string{"payroll-db", "customer-db"},
		AllowNoAttack: true,
	}
	// Attack consequences: DeterministicAttack(numTypes, typeIndex,
	// benefit, penalty, cost). Hitting payroll raises after-hours
	// alerts; hitting customer data raises masquerade alerts.
	g.Attacks = [][]auditgame.Attack{
		{
			auditgame.DeterministicAttack(2, 0, 9, 12, 1),
			auditgame.DeterministicAttack(2, 1, 7, 12, 1),
		},
		{
			auditgame.DeterministicAttack(2, 0, 5, 12, 1),
			auditgame.DeterministicAttack(2, 1, 11, 12, 1),
		},
	}

	// An Auditor session binds the game, the budget and the solver.
	// ISHM (the default method) searches the per-type thresholds; the
	// inner LP finds the optimal randomization over audit orderings at
	// each candidate.
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   g,
		Budget: 6,
		Source: auditgame.SourceOptions{Seed: 1},
		ISHM:   auditgame.ISHMConfig{Epsilon: 0.1, ExactInner: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected auditor loss: %.3f\n", res.Mixed.Objective)
	fmt.Printf("thresholds:            %v\n", res.Mixed.Thresholds)
	fmt.Printf("threshold vectors explored: %d\n\n", res.ISHM.Evaluations)

	fmt.Println("deployable policy:")
	if err := res.Policy.Save(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Prefab scenarios — the paper's three datasets and a parametric
	// scaled generator — are one registry lookup away; see the other
	// examples for full tours.
	fmt.Printf("\nbuilt-in workloads (auditgame.BuildWorkload): %v\n", auditgame.Workloads())
}
