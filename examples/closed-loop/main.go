// Closed-loop simulation: the deployment story end to end. A seeded
// discrete-event kernel runs 90 virtual days of the seasonal scenario —
// a 10-on/5-off weekday/weekend rota over the seasonal workload's four
// alert archetypes, with a permanent regime flip injected at day 48 —
// against a policy host driving a real Auditor session, while an
// adaptive attacker best-responds to the policy it observed two days
// ago. The same seed always produces the same event trace (printed as
// a hash), so every number below is reproducible bit for bit.
//
// The run is repeated under the three refit strategies: static (solve
// once, never refit — the paper's model), cron (refit on a timer), and
// drift (refit when the PR 5 drift detector fires). The comparison is
// the point of the loop: cumulative regret against a per-day reference
// solve on the true model (one CGGS solve at its caps, a heuristic and
// not an optimum), refit spend, and how fast the loop recovers after
// the flip.
//
//	go run ./examples/closed-loop
package main

import (
	"context"
	"fmt"
	"log"

	"auditgame/internal/sim"
)

func main() {
	ctx := context.Background()

	fmt.Println("seasonal scenario, 90 virtual days, regime flip at day 48, seed 1")
	fmt.Println()
	fmt.Printf("%-8s %12s %9s %9s %11s %11s %s\n",
		"strategy", "cum_regret", "refits", "fires", "detection", "model_pat", "recovery")

	for _, strat := range sim.Strategies() {
		res, err := sim.Run(ctx, "seasonal", sim.Options{Seed: 1, Strategy: strat})
		if err != nil {
			log.Fatal(err)
		}
		recovery := "never"
		for _, d := range res.Drifts {
			if d.Kind == "flip" && d.RecoveredAt >= 0 {
				recovery = fmt.Sprintf("%d days", d.TimeToRecover)
			}
		}
		fmt.Printf("%-8s %12.2f %6d/%-2d %9d %11.3f %11.3f %s\n",
			res.Strategy, res.CumRegret,
			res.RefitsInstalled, res.Refits, res.DriftFires,
			res.EmpiricalDetection, res.PredictedDetection, recovery)
		if strat == sim.StrategyDrift {
			fmt.Printf("\n  drift trace %s over %d events; detector firings at days:",
				res.TraceHash, res.Events)
			for _, pt := range res.Points {
				if pt.Drift {
					fmt.Printf(" %d", pt.Period)
				}
			}
			fmt.Println()
			fmt.Println()
		}
	}

	fmt.Println()
	fmt.Println("The static policy pays for every regime switch forever; the drift")
	fmt.Println("strategy buys its regret back with a handful of detector-triggered")
	fmt.Println("refits. Re-run with any seed via:")
	fmt.Println("  go run ./cmd/auditsim sim -scenario seasonal -strategy drift -seed 7")
}
