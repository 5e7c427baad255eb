// Command auditpolicy is the practitioner's tool: it solves audit games
// described in JSON config files and operates the resulting policies.
//
// Typical flow:
//
//	auditpolicy template > game.json          # start from the example
//	$EDITOR game.json                         # describe your deployment
//	auditpolicy solve -game game.json -budget 20 -out policy.json
//	auditpolicy eval  -game game.json -budget 20 -policy policy.json
//	auditpolicy select -policy policy.json -counts 7,3  # each morning
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"auditgame"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "template":
		fmt.Print(auditgame.GameTemplateJSON())
	case "solve":
		err = runSolve(os.Args[2:])
	case "eval":
		err = runEval(os.Args[2:])
	case "select":
		err = runSelect(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "auditpolicy: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditpolicy:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `auditpolicy solves and operates audit-prioritization policies.

commands:
  template                              print an example game.json
  solve  -game F -budget B [-epsilon E] [-exact] [-out F]
                                        solve the game, write the policy
  eval   -game F -budget B -policy F    policy loss + baseline comparison
  select -policy F -counts N,N,...      pick today's alerts to audit`)
}

func loadGame(path string) (*auditgame.Game, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return auditgame.DecodeGameJSON(f)
}

func loadPolicy(path string) (*auditgame.Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return auditgame.LoadPolicy(f)
}

func runSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	gamePath := fs.String("game", "", "game description JSON (required)")
	budget := fs.Float64("budget", 0, "audit budget per period (required)")
	epsilon := fs.Float64("epsilon", 0.1, "ISHM shrink step in (0,1)")
	exact := fs.Bool("exact", false, "solve inner LPs over all orderings (small games)")
	out := fs.String("out", "", "policy output path (default stdout)")
	seed := fs.Int64("seed", 1, "sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gamePath == "" || *budget <= 0 {
		return fmt.Errorf("solve needs -game and a positive -budget")
	}
	g, err := loadGame(*gamePath)
	if err != nil {
		return err
	}
	a, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game:   g,
		Budget: *budget,
		Source: auditgame.SourceOptions{Seed: *seed},
		ISHM:   auditgame.ISHMConfig{Epsilon: *epsilon, ExactInner: *exact},
	})
	if err != nil {
		return err
	}
	res, err := a.SolveDetailed(context.Background())
	if err != nil {
		return err
	}
	pol := res.Policy

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := pol.Save(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "expected loss %.4f, thresholds %v, %d orderings, %d threshold vectors explored\n",
		res.Mixed.Objective, res.Mixed.Thresholds, len(pol.Orderings), res.ISHM.Evaluations)
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	gamePath := fs.String("game", "", "game description JSON (required)")
	budget := fs.Float64("budget", 0, "audit budget per period (required)")
	polPath := fs.String("policy", "", "policy JSON (required)")
	seed := fs.Int64("seed", 1, "sampling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gamePath == "" || *polPath == "" || *budget <= 0 {
		return fmt.Errorf("eval needs -game, -policy, and a positive -budget")
	}
	g, err := loadGame(*gamePath)
	if err != nil {
		return err
	}
	pol, err := loadPolicy(*polPath)
	if err != nil {
		return err
	}
	if len(pol.TypeNames) != len(g.Types) {
		return fmt.Errorf("policy covers %d alert types, game has %d", len(pol.TypeNames), len(g.Types))
	}
	in, err := auditgame.NewInstance(g, *budget, auditgame.SourceOptions{Seed: *seed})
	if err != nil {
		return err
	}
	mixed := &auditgame.MixedPolicy{Thresholds: pol.Thresholds}
	for i, o := range pol.Orderings {
		mixed.Q = append(mixed.Q, auditgame.Ordering(o))
		mixed.Po = append(mixed.Po, pol.Probs[i])
	}
	loss := auditgame.Loss(in, mixed)
	fmt.Printf("policy loss:               %10.4f\n", loss)

	ro := auditgame.BaselineRandomOrders(in, mixed.Thresholds, 2000, *seed)
	fmt.Printf("random orders baseline:    %10.4f\n", ro)
	rt, err := auditgame.BaselineRandomThresholds(in, 20, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("random thresholds baseline:%10.4f\n", rt)
	fmt.Printf("greedy benefit baseline:   %10.4f\n", auditgame.BaselineGreedyBenefit(in))
	return nil
}

func runSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ContinueOnError)
	polPath := fs.String("policy", "", "policy JSON (required)")
	countsArg := fs.String("counts", "", "today's per-type alert counts, comma separated (required)")
	seed := fs.Int64("seed", 0, "randomization seed (0 = nondeterministic day key not supported; fixed 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *polPath == "" || *countsArg == "" {
		return fmt.Errorf("select needs -policy and -counts")
	}
	pol, err := loadPolicy(*polPath)
	if err != nil {
		return err
	}
	parts := strings.Split(*countsArg, ",")
	counts := make([]int, len(parts))
	for i, p := range parts {
		counts[i], err = strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("bad count %q: %v", p, err)
		}
	}
	if *seed == 0 {
		*seed = 1
	}
	sel, err := pol.Select(counts, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Printf("sampled ordering: %v (1-based)\n", onesBased(sel.Ordering))
	fmt.Printf("budget spent:     %.2f of %.2f\n", sel.Spent, pol.Budget)
	for t, chosen := range sel.Chosen {
		if len(chosen) == 0 {
			continue
		}
		fmt.Printf("%-30s audit alerts %v of %d\n", pol.TypeNames[t], chosen, counts[t])
	}
	if sel.Audited() == 0 {
		fmt.Println("nothing to audit today")
	}
	return nil
}

func onesBased(o []int) []int {
	out := make([]int, len(o))
	for i, t := range o {
		out[i] = t + 1
	}
	return out
}
