// Command auditsim regenerates every table and figure of the paper's
// evaluation. Each subcommand prints rows shaped like the corresponding
// artifact; "all" runs the full suite in order.
//
// Usage:
//
//	auditsim table3 [-budgets 2,4,...]        Table III  (brute-force optimum, Syn A)
//	auditsim table4 [-budgets ...] [-eps ...] Table IV   (ISHM + exact LP)
//	auditsim table5 [-budgets ...] [-eps ...] Table V    (ISHM + CGGS)
//	auditsim table6 [...]                     Table VI   (γ precision; runs tables 3–5)
//	auditsim table7 [...]                     Table VII  (exploration counts, T/T′)
//	auditsim fig1   [-budgets ...] [-seed N]  Figure 1   (EMR workload)
//	auditsim fig2   [-budgets ...] [-seed N]  Figure 2   (credit workload)
//	auditsim all                              everything above
//
// Flags after the subcommand override the paper's sweeps. On a 2-vCPU
// x86-64 host the paper's sweeps run in 0.3 s (fig2) to about 10 s
// (table6, which brute-forces ten budgets); "all" takes about 14 s.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"auditgame"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	start := time.Now()
	var err error
	switch cmd {
	case "table3":
		err = runTable3(args)
	case "table4":
		err = runGrid(args, "Table IV: ISHM + exact LP", auditgame.Table4)
	case "table5":
		err = runGrid(args, "Table V: ISHM + CGGS", auditgame.Table5)
	case "table6":
		err = runTable6(args)
	case "table7":
		err = runTable7(args)
	case "fig1":
		err = runFigure(args, "Figure 1: auditor loss on the EMR workload (Rea A)",
			auditgame.PaperBudgetsFig1, auditgame.Fig1)
	case "fig2":
		err = runFigure(args, "Figure 2: auditor loss on the credit workload (Rea B)",
			auditgame.PaperBudgetsFig2, auditgame.Fig2)
	case "fig":
		err = runFigWorkload(args)
	case "workloads":
		runWorkloads()
	case "scaled":
		err = runScaled(args)
	case "serve":
		// The server runs until signalled; skip the elapsed-time footer.
		if err := runServe(args); err != nil {
			fmt.Fprintln(os.Stderr, "auditsim:", err)
			os.Exit(1)
		}
		return
	case "sim":
		// Curves go to stdout; keep them parseable by skipping the
		// elapsed-time footer (the summary goes to stderr).
		if err := runSim(args); err != nil {
			fmt.Fprintln(os.Stderr, "auditsim:", err)
			os.Exit(1)
		}
		return
	case "sens":
		err = runSensitivity(args)
	case "quantal":
		err = runQuantal(args)
	case "drift":
		err = runDrift(args)
	case "validate":
		err = runValidate(args)
	case "syna":
		auditgame.PrintSynA(os.Stdout)
	case "all":
		err = runAll()
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "auditsim: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditsim:", err)
		os.Exit(1)
	}
	fmt.Printf("\n(%s in %.1fs)\n", cmd, time.Since(start).Seconds())
}

func usage() {
	fmt.Fprintln(os.Stderr, `auditsim regenerates the paper's evaluation artifacts.

commands:
  syna     print the Syn A setup (Table II)
  table3   brute-force OAP optimum per budget (Syn A)
  table4   ISHM approximation grid, exact inner LP
  table5   ISHM approximation grid, CGGS inner solver
  table6   γ precision of tables 4 and 5 against table 3
  table7   threshold-vector exploration counts and T/T' vectors
  fig1     loss-vs-budget curves on the EMR workload
  fig2     loss-vs-budget curves on the credit workload
  fig      loss-vs-budget curves on any registered workload (-workload name)
  workloads list the registered workloads
  scaled   build a scaled workload and solve it end-to-end with CGGS
  serve    run the HTTP policy server (daily counts in, audit selections
           out) with hot policy reload; see "serve -h" for flags
  sim      closed-loop discrete-event simulation: drifting traffic and
           an adaptive attacker against a refitting policy host; see
           "sim -h" for flags and "sim -list" for scenarios
  sens     robustness sweep over penalty × attack probability
  quantal  policy quality against boundedly rational adversaries
  drift    stale-vs-refit policy under workload drift
  validate replay a solved policy and compare empirical vs model detection
  all      everything, in order

common flags (after the command):
  -budgets 2,4,6   override the budget sweep
  -eps 0.1,0.2     override the ε sweep (tables 4-7)
  -seed 1          change the experiment seed (figures)
  -quick           reduced sweeps for a fast smoke run`)
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

type sweepFlags struct {
	budgets, eps []float64
	seed         int64
	quick        bool
}

func parseSweep(args []string, defBudgets, defEps []float64) (sweepFlags, error) {
	fs := flag.NewFlagSet("auditsim", flag.ContinueOnError)
	budgetStr := fs.String("budgets", "", "comma-separated budget sweep")
	epsStr := fs.String("eps", "", "comma-separated epsilon sweep")
	seed := fs.Int64("seed", 1, "experiment seed")
	quick := fs.Bool("quick", false, "reduced sweeps for a fast run")
	if err := fs.Parse(args); err != nil {
		return sweepFlags{}, err
	}
	out := sweepFlags{budgets: defBudgets, eps: defEps, seed: *seed, quick: *quick}
	if *quick {
		out.budgets = defBudgets[:min(3, len(defBudgets))]
		if defEps != nil {
			out.eps = []float64{0.1, 0.3, 0.5}
		}
	}
	var err error
	if *budgetStr != "" {
		if out.budgets, err = parseFloats(*budgetStr); err != nil {
			return sweepFlags{}, err
		}
	}
	if *epsStr != "" {
		if out.eps, err = parseFloats(*epsStr); err != nil {
			return sweepFlags{}, err
		}
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func runTable3(args []string) error {
	f, err := parseSweep(args, auditgame.PaperBudgetsSynA, nil)
	if err != nil {
		return err
	}
	rows, err := auditgame.Table3(f.budgets)
	if err != nil {
		return err
	}
	auditgame.PrintTable3(os.Stdout, rows)
	return nil
}

func runGrid(args []string, title string, run func([]float64, []float64) (*auditgame.GridResult, error)) error {
	f, err := parseSweep(args, auditgame.PaperBudgetsSynA, auditgame.PaperEpsilons)
	if err != nil {
		return err
	}
	g, err := run(f.budgets, f.eps)
	if err != nil {
		return err
	}
	auditgame.PrintGrid(os.Stdout, title, g)
	return nil
}

func runTable6(args []string) error {
	f, err := parseSweep(args, auditgame.PaperBudgetsSynA, auditgame.PaperEpsilons)
	if err != nil {
		return err
	}
	t3, err := auditgame.Table3(f.budgets)
	if err != nil {
		return err
	}
	t4, err := auditgame.Table4(f.budgets, f.eps)
	if err != nil {
		return err
	}
	t5, err := auditgame.Table5(f.budgets, f.eps)
	if err != nil {
		return err
	}
	g1, g2, err := auditgame.Table6(t3, t4, t5)
	if err != nil {
		return err
	}
	auditgame.PrintTable6(os.Stdout, f.eps, g1, g2)
	return nil
}

func runTable7(args []string) error {
	f, err := parseSweep(args, auditgame.PaperBudgetsSynA, auditgame.PaperEpsilons)
	if err != nil {
		return err
	}
	t4, err := auditgame.Table4(f.budgets, f.eps)
	if err != nil {
		return err
	}
	const synAGrid = 12 * 10 * 8 * 8
	t7, err := auditgame.Table7(t4, synAGrid)
	if err != nil {
		return err
	}
	auditgame.PrintTable7(os.Stdout, t7)
	return nil
}

func runFigure(args []string, title string, defBudgets []float64,
	run func([]float64, auditgame.FigOptions) (*auditgame.FigureResult, error)) error {
	f, err := parseSweep(args, defBudgets, nil)
	if err != nil {
		return err
	}
	opts := auditgame.FigOptions{Seed: f.seed}
	if f.quick {
		opts.Epsilons = []float64{0.2}
		opts.RandomThresholdDraws = 5
		opts.BankSize = 200
		opts.MaxSubset = 2
	}
	fig, err := run(f.budgets, opts)
	if err != nil {
		return err
	}
	auditgame.PrintFigure(os.Stdout, title, fig)
	return nil
}

// runWorkloads lists the registry.
func runWorkloads() {
	fmt.Println("registered workloads:")
	for _, name := range auditgame.Workloads() {
		w, _ := auditgame.GetWorkload(name)
		fmt.Printf("  %-8s %s\n", name, w.Description())
	}
}

// runFigWorkload runs the figure experiment on any registered workload.
func runFigWorkload(args []string) error {
	fs := flag.NewFlagSet("auditsim fig", flag.ContinueOnError)
	name := fs.String("workload", "emr", "registered workload name")
	budgetStr := fs.String("budgets", "", "comma-separated budget sweep")
	seed := fs.Int64("seed", 1, "experiment seed")
	quick := fs.Bool("quick", false, "reduced sweeps for a fast run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	budgets := auditgame.PaperBudgetsFig1
	if *name == "credit" {
		budgets = auditgame.PaperBudgetsFig2
	}
	if *budgetStr != "" {
		var err error
		if budgets, err = parseFloats(*budgetStr); err != nil {
			return err
		}
	}
	opts := auditgame.FigOptions{Seed: *seed}
	if *quick {
		opts.Epsilons = []float64{0.2}
		opts.RandomThresholdDraws = 5
		opts.BankSize = 200
		opts.MaxSubset = 2
	}
	fig, err := auditgame.FigWorkload(*name, budgets, opts)
	if err != nil {
		return err
	}
	auditgame.PrintFigure(os.Stdout, "Loss vs budget on the "+*name+" workload", fig)
	return nil
}

// runScaled builds a parametric scaled game and solves it end-to-end
// with CGGS on a Monte-Carlo bank, printing the bottleneck accounting.
func runScaled(args []string) error {
	fs := flag.NewFlagSet("auditsim scaled", flag.ContinueOnError)
	entities := fs.Int("entities", 2000, "number of potential adversaries")
	types := fs.Int("types", 32, "number of alert types")
	victims := fs.Int("victims", 0, "number of victims (0 = default)")
	profiles := fs.Int("profiles", 0, "behavioral profiles (0 = default)")
	days := fs.Int("days", 0, "fit counts empirically from this many simulated days (0 = parametric)")
	seed := fs.Int64("seed", 1, "generator seed")
	bank := fs.Int("bank", 0, "sample bank size (0 = default)")
	frac := fs.Float64("budget-frac", 0, "budget as a fraction of the expected full audit cost (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := auditgame.ScaledCGGS(auditgame.ScaledConfig{
		Workload: auditgame.ScaledWorkload{
			Entities:   *entities,
			AlertTypes: *types,
			Victims:    *victims,
			Profiles:   *profiles,
			Days:       *days,
			Seed:       *seed,
		},
		BudgetFraction: *frac,
		BankSize:       *bank,
	})
	if err != nil {
		return err
	}
	auditgame.PrintScaled(os.Stdout, res)
	return nil
}

func runSensitivity(args []string) error {
	f, err := parseSweep(args, nil, nil)
	if err != nil {
		return err
	}
	rows, err := auditgame.Sensitivity(auditgame.SensitivityConfig{Seed: f.seed})
	if err != nil {
		return err
	}
	auditgame.PrintSensitivity(os.Stdout, rows)
	return nil
}

func runQuantal(args []string) error {
	f, err := parseSweep(args, []float64{6}, nil)
	if err != nil {
		return err
	}
	budget := f.budgets[0]
	rows, err := auditgame.QuantalRobustness(budget, nil)
	if err != nil {
		return err
	}
	auditgame.PrintQuantal(os.Stdout, budget, rows)
	return nil
}

func runDrift(args []string) error {
	f, err := parseSweep(args, []float64{6}, nil)
	if err != nil {
		return err
	}
	budget := f.budgets[0]
	rows, err := auditgame.WorkloadShift(budget, nil)
	if err != nil {
		return err
	}
	auditgame.PrintWorkloadShift(os.Stdout, budget, rows)
	return nil
}

func runValidate(args []string) error {
	f, err := parseSweep(args, []float64{10}, nil)
	if err != nil {
		return err
	}
	cfg := auditgame.ValidateConfig{Budget: f.budgets[0], Seed: f.seed}
	rows, err := auditgame.Validate(cfg)
	if err != nil {
		return err
	}
	auditgame.PrintValidation(os.Stdout, cfg, rows)
	return nil
}

// runAll regenerates every artifact, computing the Syn A sweeps once and
// deriving tables VI and VII from them rather than re-running.
func runAll() error {
	budgets := auditgame.PaperBudgetsSynA
	eps := auditgame.PaperEpsilons

	fmt.Println("==> table3 (brute force; the slow one)")
	t3, err := auditgame.Table3(budgets)
	if err != nil {
		return err
	}
	auditgame.PrintTable3(os.Stdout, t3)

	fmt.Println("\n==> table4")
	t4, err := auditgame.Table4(budgets, eps)
	if err != nil {
		return err
	}
	auditgame.PrintGrid(os.Stdout, "Table IV: ISHM + exact LP", t4)

	fmt.Println("\n==> table5")
	t5, err := auditgame.Table5(budgets, eps)
	if err != nil {
		return err
	}
	auditgame.PrintGrid(os.Stdout, "Table V: ISHM + CGGS", t5)

	fmt.Println("\n==> table6")
	g1, g2, err := auditgame.Table6(t3, t4, t5)
	if err != nil {
		return err
	}
	auditgame.PrintTable6(os.Stdout, eps, g1, g2)

	fmt.Println("\n==> table7")
	t7, err := auditgame.Table7(t4, 12*10*8*8)
	if err != nil {
		return err
	}
	auditgame.PrintTable7(os.Stdout, t7)

	fmt.Println("\n==> fig1")
	f1, err := auditgame.Fig1(auditgame.PaperBudgetsFig1, auditgame.FigOptions{Seed: 1})
	if err != nil {
		return err
	}
	auditgame.PrintFigure(os.Stdout, "Figure 1: auditor loss on the EMR workload (Rea A)", f1)

	fmt.Println("\n==> fig2")
	f2, err := auditgame.Fig2(auditgame.PaperBudgetsFig2, auditgame.FigOptions{Seed: 1})
	if err != nil {
		return err
	}
	auditgame.PrintFigure(os.Stdout, "Figure 2: auditor loss on the credit workload (Rea B)", f2)
	return nil
}
