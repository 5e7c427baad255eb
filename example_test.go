package auditgame_test

import (
	"context"
	"fmt"
	"math/rand"

	"auditgame"
)

// ExampleAuditor_SolveDetailed solves the paper's controlled dataset by
// ISHM and prints the policy's headline numbers.
func ExampleAuditor_SolveDetailed() {
	in, err := auditgame.NewInstance(auditgame.SynA(), 6, auditgame.SourceOptions{})
	if err != nil {
		panic(err)
	}
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Instance: in,
		ISHM:     auditgame.ISHMConfig{Epsilon: 0.1, ExactInner: true},
	})
	if err != nil {
		panic(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("thresholds: %v\n", res.ISHM.Policy.Thresholds)
	fmt.Printf("has orderings: %v\n", len(res.ISHM.Policy.Q) > 0)
	// Output:
	// thresholds: [2,2,2,2]
	// has orderings: true
}

// ExampleAuditor_SolveDetailed_exact computes the optimal ordering
// mixture for fixed thresholds.
func ExampleAuditor_SolveDetailed_exact() {
	in, err := auditgame.NewInstance(auditgame.SynA(), 4, auditgame.SourceOptions{})
	if err != nil {
		panic(err)
	}
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Instance:   in,
		Method:     auditgame.MethodExact,
		Thresholds: auditgame.Thresholds{2, 1, 1, 2},
	})
	if err != nil {
		panic(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		panic(err)
	}
	var sum float64
	for _, p := range res.Mixed.Po {
		sum += p
	}
	fmt.Printf("probabilities sum to %.0f\n", sum)
	// Output:
	// probabilities sum to 1
}

// ExamplePolicyFrom shows the path from a solved game to the per-day
// recourse selection an auditor executes.
func ExamplePolicyFrom() {
	g := auditgame.SynA()
	in, err := auditgame.NewInstance(g, 10, auditgame.SourceOptions{})
	if err != nil {
		panic(err)
	}
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Instance:   in,
		Method:     auditgame.MethodExact,
		Thresholds: auditgame.Thresholds{3, 3, 3, 3},
	})
	if err != nil {
		panic(err)
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		panic(err)
	}
	pol := auditgame.PolicyFrom(g, 10, res.Mixed)

	// Today's realized alert bins: 5 of type 1, 4 of type 2, …
	sel, err := pol.Select([]int{5, 4, 6, 3}, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("audited %d alerts within budget %.0f\n", sel.Audited(), pol.Budget)
	fmt.Printf("overspent: %v\n", sel.Spent > pol.Budget)
	// Output:
	// audited 10 alerts within budget 10
	// overspent: false
}

// ExampleNewRuleEngine builds a tiny TDMT pipeline: rules classify raw
// access events into typed alert bins.
func ExampleNewRuleEngine() {
	engine, err := auditgame.NewRuleEngine([]auditgame.Rule{
		{Name: "self-access", Match: func(ev auditgame.AccessEvent) bool {
			return ev.Actor == ev.Target
		}},
		{Name: "vip-record", Match: func(ev auditgame.AccessEvent) bool {
			return ev.Attr("target.vip") == "yes"
		}},
	})
	if err != nil {
		panic(err)
	}
	events := []auditgame.AccessEvent{
		{Day: 0, Actor: "nurse7", Target: "nurse7"},
		{Day: 0, Actor: "nurse7", Target: "patient9"},
		{Day: 0, Actor: "dr3", Target: "mayor",
			Attrs: map[string]string{"target.vip": "yes"}},
	}
	log, benign, err := auditgame.ProcessEvents(engine, events, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("alerts: %d, benign: %d\n", log.Len(), benign)
	counts, _ := auditgame.CountsForDay(log, 0)
	fmt.Printf("bins: %v\n", counts)
	// Output:
	// alerts: 2, benign: 1
	// bins: [1 1]
}
