// EMR audit scenario (the paper's Rea A): build the 50×50
// employee-patient audit game through the workload registry — which
// simulates a month of hospital access logs and fits the alert workload
// behind the scenes — and compare the game-theoretic policy against the
// naive baselines at a realistic budget.
//
//	go run ./examples/emr-audit
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"auditgame"
)

func main() {
	fmt.Println("building the EMR workload (simulates 28 days of access traffic)...")
	g, _, err := auditgame.BuildWorkload("emr", auditgame.WorkloadScale{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	for t, at := range g.Types {
		fmt.Printf("  type %d (%-36s) fitted daily count mean %6.1f\n",
			t+1, at.Name, at.Dist.Mean())
	}
	fmt.Printf("\ngame: %d employees × %d patients, %d alert types\n",
		len(g.Entities), len(g.Victims), len(g.Types))

	const budget = 60.0
	in, err := auditgame.NewInstance(g, budget, auditgame.SourceOptions{BankSize: 400, Seed: 44})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsolving the audit game at budget %.0f...\n", budget)
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Instance: in,
		ISHM:     auditgame.ISHMConfig{Epsilon: 0.2, MaxSubset: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  proposed policy loss:        %8.2f  (thresholds %v)\n",
		res.Mixed.Objective, res.Mixed.Thresholds)

	ro := auditgame.BaselineRandomOrders(in, res.Mixed.Thresholds, 2000, 45)
	fmt.Printf("  random audit orders:         %8.2f\n", ro)
	rt, err := auditgame.BaselineRandomThresholds(in, 20, 46)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  random thresholds:           %8.2f\n", rt)
	gb := auditgame.BaselineGreedyBenefit(in)
	fmt.Printf("  greedy by benefit:           %8.2f\n", gb)

	f, err := os.CreateTemp("", "emr-policy-*.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := res.Policy.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npolicy saved to %s\n", f.Name())
}
