// Online refitting: operate an audit policy while the alert workload
// drifts. The Auditor session tracks the observed counts through a
// drift Tracker (sliding windows + a two-stage distance detector); when
// the live workload moves away from the model the installed policy was
// solved against, a refit re-solves on the window snapshot and installs
// only if the policy moves enough to matter. This is the practical
// answer to the paper's known-distribution assumption (§II-A): the
// model stays fresh and the solver runs only when it pays.
//
//	go run ./examples/online-refit
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"auditgame"
)

const (
	numTypes = 3
	window   = 14 // days of history the workload model remembers
	horizon  = 84 // simulated days
	budget   = 3.0
)

func main() {
	r := rand.New(rand.NewSource(11))

	// Ground-truth workload: means drift upward over time (e.g. the
	// organization grows), which slowly invalidates any fitted model.
	baseMeans := []float64{5, 4, 3}
	truthAt := func(day int) []auditgame.Distribution {
		growth := 1 + float64(day)/float64(horizon) // up to 2× by the end
		ds := make([]auditgame.Distribution, numTypes)
		for t := range ds {
			ds[t] = auditgame.GaussianCounts(baseMeans[t]*growth, 1.5, 0.995)
		}
		return ds
	}

	// Bind the session once: the day-0 model, the budget, the solver.
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   buildGame(truthAt(0)),
		Budget: budget,
		Method: auditgame.MethodISHM,
		ISHM:   auditgame.ISHMConfig{Epsilon: 0.2, ExactInner: true},
		Source: auditgame.SourceOptions{Seed: 7},
	})
	if err != nil {
		log.Fatal(err)
	}
	pol, err := a.Solve(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day  0: solved  loss=%7.3f  thresholds=%v\n", pol.ExpectedLoss, pol.Thresholds)

	// Attach the drift tracker: it owns one sliding window per alert
	// type and decides when the model has moved enough to re-solve —
	// no hand-rolled refit cadence.
	tr, err := auditgame.NewTracker(numTypes, auditgame.TrackerConfig{Window: window})
	if err != nil {
		log.Fatal(err)
	}
	if err := a.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: 0}); err != nil {
		log.Fatal(err)
	}

	for day := 1; day <= horizon; day++ {
		// Observe today's counts and run the policy.
		counts := make([]int, numTypes)
		for t, d := range truthAt(day) {
			counts[t] = d.Sample(r)
		}
		sel, err := a.Select(counts)
		if err != nil {
			log.Fatal(err)
		}
		if day%14 == 3 { // a periodic peek at operations
			st := tr.State()
			fmt.Printf("day %2d: audit %d/%d alerts, window means=%s (model %s)\n",
				day, sel.Audited(), sum(counts), fmtMeans(st.WindowMeans), fmtMeans(st.ModelMeans))
		}

		// Feed the tracker; when drift fires, re-solve on the window
		// snapshot. (The policy server does the same asynchronously, as
		// a refit job.)
		dec, err := a.Observe(counts)
		if err != nil {
			log.Fatal(err)
		}
		if !dec.Drift {
			continue
		}
		fmt.Printf("day %2d: drift   %s\n", day, dec.Reason)
		out, err := a.Refit(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if out.Installed {
			p := a.Policy()
			fmt.Printf("day %2d: refit   loss=%7.3f  thresholds=%v  (version %d, old policy scored %.3f on the new model)\n",
				day, p.ExpectedLoss, p.Thresholds, out.PolicyVersion, out.OldLoss)
		} else {
			fmt.Printf("day %2d: refit   skipped — %s\n", day, out.Reason)
		}
	}
	st := tr.State()
	fmt.Printf("done: %d periods, %d drift checks, %d firings, %d installs (serving version %d)\n",
		st.Periods, st.Checks, st.Fires, st.Installs, a.PolicyVersion())
}

// buildGame assembles a small insider-threat game over the given count
// model.
func buildGame(model []auditgame.Distribution) *auditgame.Game {
	g := &auditgame.Game{
		Entities:      []auditgame.Entity{{Name: "insider", PAttack: 0.5}},
		Victims:       []string{"db-a", "db-b", "db-c"},
		AllowNoAttack: true,
	}
	benefits := []float64{6, 7, 9}
	var attacks []auditgame.Attack
	for t := 0; t < numTypes; t++ {
		g.Types = append(g.Types, auditgame.AlertType{
			Name: fmt.Sprintf("type-%d", t+1), Cost: 1, Dist: model[t],
		})
		attacks = append(attacks, auditgame.DeterministicAttack(numTypes, t, benefits[t], 10, 1))
	}
	g.Attacks = [][]auditgame.Attack{attacks}
	return g
}

func fmtMeans(ms []float64) string {
	s := "["
	for i, m := range ms {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.1f", m)
	}
	return s + "]"
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
