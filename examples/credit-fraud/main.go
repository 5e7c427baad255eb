// Credit-fraud audit scenario (the paper's Rea B): build the
// 100-applicant × 8-purpose audit game through the workload registry —
// which synthesizes the 1000-application population and fits the five
// Table IX alert types — and sweep the budget to find the deterrence
// point where the auditor's loss reaches zero.
//
//	go run ./examples/credit-fraud
package main

import (
	"context"
	"fmt"
	"log"

	"auditgame"
)

func main() {
	fmt.Println("building the credit workload (synthesizes the application population)...")
	g, _, err := auditgame.BuildWorkload("credit", auditgame.WorkloadScale{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	for t, at := range g.Types {
		fmt.Printf("  type %d (%-42s) fitted per-period count mean %6.1f\n",
			t+1, at.Name, at.Dist.Mean())
	}
	fmt.Printf("\ngame: %d applicants × %d purposes, %d alert types\n",
		len(g.Entities), len(g.Victims), len(g.Types))

	fmt.Println("\nbudget sweep (proposed policy, ε = 0.2):")
	fmt.Println("  budget   loss     thresholds")
	deterredAt := -1.0
	for _, budget := range []float64{10, 50, 90, 130, 170, 210, 250} {
		a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
			Game:   g,
			Budget: budget,
			Source: auditgame.SourceOptions{BankSize: 400, Seed: 9},
			ISHM:   auditgame.ISHMConfig{Epsilon: 0.2},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := a.SolveDetailed(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6.0f %8.2f     %v\n", budget, res.Mixed.Objective, res.Mixed.Thresholds)
		if deterredAt < 0 && res.Mixed.Objective < 1e-6 {
			deterredAt = budget
		}
	}
	if deterredAt >= 0 {
		fmt.Printf("\nall attackers deterred from budget %.0f on\n", deterredAt)
	} else {
		fmt.Println("\nattackers not fully deterred within the sweep")
	}
}
