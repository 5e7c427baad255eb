// Benchmarks regenerating every evaluation artifact of the paper, plus
// ablations of the design choices called out in DESIGN.md. Each benchmark
// runs a reduced-but-representative slice of the corresponding experiment
// (the full sweeps live behind `auditsim`); reported custom metrics carry
// the experiment's headline number so shape regressions show up in bench
// output.
//
//	go test -bench=. -benchmem
package auditgame_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"auditgame"
	"auditgame/internal/game"
	"auditgame/internal/lp"
	"auditgame/internal/sample"
	"auditgame/internal/serve"
	"auditgame/internal/solver"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// BenchmarkTable3 regenerates a Table III row: the brute-force OAP
// optimum on Syn A at B=2 (paper value ≈ 12.29).
func BenchmarkTable3(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := auditgame.Table3([]float64{2})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0].Objective
	}
	b.ReportMetric(last, "loss@B2")
}

// BenchmarkTable4 regenerates Table IV cells: ISHM with the exact inner
// LP at B ∈ {4, 10}, ε = 0.25 (paper: 7.7176 and −2.1314).
func BenchmarkTable4(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		g, err := auditgame.Table4([]float64{4, 10}, []float64{0.25})
		if err != nil {
			b.Fatal(err)
		}
		last = g.Cells[0][0].Objective
	}
	b.ReportMetric(last, "loss@B4")
}

// BenchmarkTable5 regenerates Table V cells: ISHM with the CGGS inner
// solver on the same slice (paper: 7.7346 and −2.1203).
func BenchmarkTable5(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		g, err := auditgame.Table5([]float64{4, 10}, []float64{0.25})
		if err != nil {
			b.Fatal(err)
		}
		last = g.Cells[0][0].Objective
	}
	b.ReportMetric(last, "loss@B4")
}

// BenchmarkTable6 regenerates a γ precision value on a two-budget slice
// (paper: γ ≈ 0.99 for ε ≤ 0.25).
func BenchmarkTable6(b *testing.B) {
	budgets := []float64{4, 10}
	eps := []float64{0.25}
	var gamma float64
	for i := 0; i < b.N; i++ {
		t3, err := auditgame.Table3(budgets)
		if err != nil {
			b.Fatal(err)
		}
		t4, err := auditgame.Table4(budgets, eps)
		if err != nil {
			b.Fatal(err)
		}
		t5, err := auditgame.Table5(budgets, eps)
		if err != nil {
			b.Fatal(err)
		}
		g1, _, err := auditgame.Table6(t3, t4, t5)
		if err != nil {
			b.Fatal(err)
		}
		gamma = g1[0]
	}
	b.ReportMetric(gamma, "gamma1")
}

// BenchmarkTable7 regenerates exploration accounting: threshold vectors
// checked by ISHM per (B, ε) and the T′ ratio against the 7680-point
// brute-force grid (paper: ≈ 2.5% at ε = 0.2).
func BenchmarkTable7(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t4, err := auditgame.Table4([]float64{4, 10}, []float64{0.2})
		if err != nil {
			b.Fatal(err)
		}
		t7, err := auditgame.Table7(t4, 12*10*8*8)
		if err != nil {
			b.Fatal(err)
		}
		ratio = t7.RatioPerEpsilon[0]
	}
	b.ReportMetric(ratio, "explored-ratio")
}

func quickFigOpts() auditgame.FigOptions {
	return auditgame.FigOptions{
		Epsilons:             []float64{0.2},
		RandomThresholdDraws: 5,
		RandomOrderSamples:   500,
		BankSize:             200,
		MaxSubset:            2,
		Seed:                 1,
	}
}

// BenchmarkFig1 regenerates two Figure 1 points on the EMR workload; the
// metric is the proposed model's advantage over the best baseline at the
// higher budget (positive = we win, the figure's headline).
func BenchmarkFig1(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		f, err := auditgame.Fig1([]float64{20, 60}, quickFigOpts())
		if err != nil {
			b.Fatal(err)
		}
		best := f.Series[1].Values[1]
		for _, s := range f.Series[2:] {
			if s.Values[1] < best {
				best = s.Values[1]
			}
		}
		advantage = best - f.Series[0].Values[1]
	}
	b.ReportMetric(advantage, "advantage@B60")
}

// BenchmarkFig2 regenerates two Figure 2 points on the credit workload,
// reporting the proposed model's loss at B=250 (paper: ≈ 0, full
// deterrence).
func BenchmarkFig2(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		f, err := auditgame.Fig2([]float64{130, 250}, quickFigOpts())
		if err != nil {
			b.Fatal(err)
		}
		loss = f.Series[0].Values[1]
	}
	b.ReportMetric(loss, "loss@B250")
}

// BenchmarkScaledCGGS sweeps the alert-type count on the parametric
// scaled workload (2000 entities, Bank-only estimation) and reports the
// column-generation work accounting per sweep point: columns generated,
// cumulative simplex pivots, and uncached Pal evaluations. The sweep is
// how we locate where CGGS saturates — columns grow roughly linearly in
// |T|, but each greedy column prices |T|² partial extensions and each
// extension walks the realization matrix, so Pal evaluation work grows
// roughly cubically while the master LPs add a superlinear pivot term
// on top.
func BenchmarkScaledCGGS(b *testing.B) {
	for _, nT := range []int{8, 16, 32, 48} {
		b.Run(fmt.Sprintf("types%d", nT), func(b *testing.B) {
			var last *auditgame.ScaledResult
			for i := 0; i < b.N; i++ {
				r, err := auditgame.ScaledCGGS(auditgame.ScaledConfig{
					Workload: auditgame.ScaledWorkload{Entities: 2000, AlertTypes: nT, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(float64(last.Stats.Columns), "columns")
			b.ReportMetric(float64(last.Stats.Pivots), "pivots")
			b.ReportMetric(float64(last.Stats.PalEvals), "pal-evals")
			b.ReportMetric(last.Loss, "loss")
		})
	}
}

// BenchmarkNewInstance measures evaluation-instance construction at the
// bank-drift 48-type shape (2,000 entities, a 512-row bank): realization
// dedup and transpose plus the entity-class build, the set-up every
// solve, refit model build and simulator model pays.
func BenchmarkNewInstance(b *testing.B) {
	g, _, err := workload.Scaled{Entities: 2000, AlertTypes: 48, Seed: 1, Templates: workload.DefaultTemplates()}.Build(workload.Scale{})
	if err != nil {
		b.Fatal(err)
	}
	src := sample.NewBank(g.Dists(), 512, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.NewInstance(g, 250, src); err != nil {
			b.Fatal(err)
		}
	}
}

// warmBenchConfig sizes one warm-vs-cold regime of BenchmarkWarmRefit.
type warmBenchConfig struct {
	nT, entities, profiles, victims, bank int
	exhaustive                            bool
}

// scaledDriftPair builds the warm-refit benchmark scenario: a
// bank-scale scaled workload plus the same workload after a small
// (~2%) rate drift in every count template — the magnitude a window
// snapshot refit typically sees — together with the pinned thresholds
// and shared budget. Attack structure and seeds are identical, so the
// two games are structurally compatible by construction.
func scaledDriftPair(b *testing.B, c warmBenchConfig) (base, drifted *game.Game, thr game.Thresholds, budget float64) {
	b.Helper()
	mk := func(scale float64) *game.Game {
		tmpl := workload.DefaultTemplates()
		for i := range tmpl {
			switch tmpl[i].Spec.Kind {
			case "gaussian":
				tmpl[i].Spec.Mean *= scale
			case "poisson":
				tmpl[i].Spec.Lambda *= scale
			}
		}
		g, _, err := workload.Scaled{
			Entities: c.entities, AlertTypes: c.nT, Profiles: c.profiles,
			Seed: 1, Templates: tmpl,
		}.Build(workload.Scale{Victims: c.victims})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	base, drifted = mk(1), mk(1.02)
	thr = base.ThresholdCaps()
	for _, at := range base.Types {
		budget += at.Dist.Mean() * at.Cost
	}
	budget *= 0.1
	return base, drifted, thr, budget
}

// benchWarmRegime runs the cold/warm sub-benchmark pair for one sizing
// regime. "cold" solves the drifted instance from scratch (the
// pre-SolveState behaviour on every drift refit); "warm" refits from a
// state solved on the pre-drift model — pool-seeded master,
// basis-crashed simplex. Both time a fresh
// instance (empty Pal cache), so the measured work is the full re-solve
// a serving process pays; the warm path's state preparation runs off
// the clock. It returns the final cold and warm losses.
func benchWarmRegime(b *testing.B, c warmBenchConfig) (coldLoss, warmLoss float64) {
	base, drifted, thr, budget := scaledDriftPair(b, c)
	ctx := context.Background()
	opts := solver.CGGSOptions{ExhaustiveOracle: c.exhaustive}
	newInstance := func(g *game.Game) *game.Instance {
		in, err := game.NewInstance(g, budget, sample.NewBank(g.Dists(), c.bank, 2))
		if err != nil {
			b.Fatal(err)
		}
		return in
	}

	b.Run("cold", func(b *testing.B) {
		var stats solver.CGGSStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			din := newInstance(drifted)
			runtime.GC()
			b.StartTimer()
			pol, st, err := solver.CGGSWithStats(ctx, din, thr, opts)
			if err != nil {
				b.Fatal(err)
			}
			coldLoss, stats = pol.Objective, st
		}
		b.ReportMetric(coldLoss, "loss")
		b.ReportMetric(float64(stats.MasterSolves), "pricing-rounds")
		b.ReportMetric(float64(stats.Pivots), "pivots")
		b.ReportMetric(float64(stats.PalEvals), "pal-evals")
	})

	b.Run("warm", func(b *testing.B) {
		var ws solver.WarmStats
		var stats solver.CGGSStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := solver.NewSolveState(opts)
			if _, err := st.Solve(ctx, newInstance(base), thr); err != nil {
				b.Fatal(err)
			}
			din := newInstance(drifted)
			runtime.GC()
			b.StartTimer()
			pol, err := st.Refit(ctx, din, thr, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !st.WarmStats().Warm {
				b.Fatal("refit did not run warm")
			}
			warmLoss, ws, stats = pol.Objective, st.WarmStats(), st.Stats()
		}
		b.ReportMetric(warmLoss, "loss")
		b.ReportMetric(float64(ws.ColumnsReused), "columns-reused")
		b.ReportMetric(float64(stats.MasterSolves), "pricing-rounds")
		b.ReportMetric(float64(stats.Pivots), "pivots")
		b.ReportMetric(float64(stats.PalEvals), "pal-evals")
	})
	return coldLoss, warmLoss
}

// BenchmarkWarmRefit measures what the persistent SolveState buys on a
// drift-triggered re-solve, in two regimes.
//
// "exact" runs with the exhaustive pricing oracle, so cold and warm
// both terminate at the certified fixed-threshold optimum and the two
// loss metrics must coincide — the benchmark fails if they do not.
// This is the apples-to-apples pair: identical final losses, and the
// warm path skips nearly all of cold's pricing rounds.
//
// "scale" runs the paper's greedy-only oracle at bank scale (24 types,
// 512-realization bank), where exhaustive certification is infeasible
// for either path. The speedup is larger still, but greedy termination
// is heuristic: cold and warm stop at (near-identical, occasionally
// different) local optima, with the warm pool never pricing worse than
// what it was seeded with. Both losses are reported for comparison.
func BenchmarkWarmRefit(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		cold, warm := benchWarmRegime(b, warmBenchConfig{
			nT: 5, entities: 6000, profiles: 64, victims: 64, bank: 64, exhaustive: true,
		})
		if cold != 0 && warm != 0 {
			if diff := math.Abs(cold - warm); diff > 1e-6*math.Max(1, math.Abs(cold)) {
				b.Fatalf("exact regime losses diverged: cold %.9f vs warm %.9f", cold, warm)
			}
		}
	})
	b.Run("scale", func(b *testing.B) {
		benchWarmRegime(b, warmBenchConfig{
			nT: 24, entities: 2000, bank: 512,
		})
	})
}

// --- Ablations -----------------------------------------------------------

func synAInstance(b *testing.B, budget float64, src sample.Source) *game.Instance {
	b.Helper()
	in, err := game.NewInstance(game.SynA(), budget, src)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkAblationPalEstimator compares the exact joint enumeration of
// detection probabilities against Monte-Carlo banks of decreasing size
// (A1 in DESIGN.md). The metric is the CGGS objective — watch it drift as
// the bank shrinks.
func BenchmarkAblationPalEstimator(b *testing.B) {
	g := game.SynA()
	exact, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		src  sample.Source
	}{
		{"exact", exact},
		{"bank4096", sample.NewBank(g.Dists(), 4096, 1)},
		{"bank512", sample.NewBank(g.Dists(), 512, 1)},
		{"bank64", sample.NewBank(g.Dists(), 64, 1)},
	}
	thr := game.Thresholds{3, 3, 3, 3}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				in := synAInstance(b, 10, tc.src)
				pol, err := solver.CGGS(context.Background(), in, thr, solver.CGGSOptions{})
				if err != nil {
					b.Fatal(err)
				}
				obj = pol.Objective
			}
			b.ReportMetric(obj, "loss")
		})
	}
}

// BenchmarkAblationCRN compares common-random-number evaluation (one
// frozen bank shared by every ISHM candidate) against fresh sampling per
// candidate (A2). Fresh noise breaks the monotonicity of ISHM's
// accept/reject comparisons; the metric is the final objective.
func BenchmarkAblationCRN(b *testing.B) {
	g := game.SynA()
	run := func(b *testing.B, fresh bool) {
		var obj float64
		seed := int64(1)
		for i := 0; i < b.N; i++ {
			inner := func(ctx context.Context, in *game.Instance, thr game.Thresholds) (*solver.MixedPolicy, error) {
				if fresh {
					// Re-draw the bank for every candidate, as a
					// naive implementation would.
					seed++
					in2, err := game.NewInstance(g, in.Budget, sample.NewBank(g.Dists(), 512, seed))
					if err != nil {
						return nil, err
					}
					return solver.CGGS(ctx, in2, thr, solver.CGGSOptions{})
				}
				return solver.CGGS(ctx, in, thr, solver.CGGSOptions{})
			}
			in := synAInstance(b, 10, sample.NewBank(g.Dists(), 512, 1))
			res, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
				Epsilon: 0.25, Inner: inner, EvaluateInitial: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			obj = res.Policy.Objective
		}
		b.ReportMetric(obj, "loss")
	}
	b.Run("crn", func(b *testing.B) { run(b, false) })
	b.Run("fresh", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationColumnOracle compares the paper's greedy column oracle
// against the exhaustive oracle that certifies LP optimality (A3). The
// metric is the objective gap the greedy oracle leaves on the table.
func BenchmarkAblationColumnOracle(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	thr := game.Thresholds{2, 2, 2, 2}
	for _, exhaustive := range []bool{false, true} {
		name := "greedy"
		if exhaustive {
			name = "exhaustive"
		}
		b.Run(name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				in := synAInstance(b, 6, src)
				pol, err := solver.CGGS(context.Background(), in, thr, solver.CGGSOptions{ExhaustiveOracle: exhaustive})
				if err != nil {
					b.Fatal(err)
				}
				obj = pol.Objective
			}
			b.ReportMetric(obj, "loss")
		})
	}
}

// BenchmarkAblationPivotRule compares Dantzig pricing (with Bland
// fallback) against pure Bland's rule on random dense LPs (A4): min cᵀx
// over 30 non-negative columns subject to 20 random ≤ rows and a
// Σx ≤ 100 cap, each row given a slack and, when its rhs is negative,
// multiplied by −1.
func BenchmarkAblationPivotRule(b *testing.B) {
	build := func(w *lp.Workspace, r *rand.Rand) {
		const n, m = 30, 20
		w.Reset(m+1, n+m+1)
		for j := 0; j < n; j++ {
			w.C[j] = float64(r.Intn(21) - 10)
		}
		for i := 0; i <= m; i++ {
			if i < m {
				var atOnes float64
				for j := 0; j < n; j++ {
					v := float64(r.Intn(9) - 4)
					w.Col(j)[i] = v
					atOnes += v
				}
				w.B[i] = atOnes + float64(r.Intn(10))
			} else {
				for j := 0; j < n; j++ {
					w.Col(j)[i] = 1
				}
				w.B[i] = 100
			}
			w.Col(n + i)[i] = 1
			if w.B[i] < 0 {
				w.B[i] = -w.B[i]
				for j := 0; j < n+m+1; j++ {
					w.Col(j)[i] *= -1
				}
			} else {
				w.Crash[i] = n + i
			}
		}
	}
	for _, bland := range []bool{false, true} {
		name := "dantzig"
		if bland {
			name = "bland"
		}
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewSource(7))
			var w lp.Workspace
			var iters int
			for i := 0; i < b.N; i++ {
				build(&w, r)
				sol := w.Solve(lp.Options{Bland: bland})
				if sol.Status != lp.Optimal {
					b.Fatalf("status %v", sol.Status)
				}
				iters = sol.Iterations
			}
			b.ReportMetric(float64(iters), "pivots")
		})
	}
}

// BenchmarkAblationThresholdQuantization compares ISHM with and without
// snapping thresholds to the audit-cost grid (A5). Fractional thresholds
// leak budget through the min(b_t, Z_t·C_t) consumption term, which
// plateaus the search at the full-coverage start; the loss metric shows
// the gap.
func BenchmarkAblationThresholdQuantization(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	for _, noQuant := range []bool{false, true} {
		name := "quantized"
		if noQuant {
			name = "fractional"
		}
		b.Run(name, func(b *testing.B) {
			var obj float64
			for i := 0; i < b.N; i++ {
				in := synAInstance(b, 6, src)
				res, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
					Epsilon: 0.25, Inner: solver.ExactInner,
					EvaluateInitial: true, Memoize: true, NoQuantize: noQuant,
				})
				if err != nil {
					b.Fatal(err)
				}
				obj = res.Policy.Objective
			}
			b.ReportMetric(obj, "loss")
		})
	}
}

// BenchmarkAblationThresholdSearch compares ISHM's subset-shrink schedule
// against plain coordinate descent on the integer grid (A6). Descent
// evaluates far fewer vectors; the loss metric shows what that frugality
// costs.
func BenchmarkAblationThresholdSearch(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ishm", func(b *testing.B) {
		var obj float64
		var evals int
		for i := 0; i < b.N; i++ {
			in := synAInstance(b, 6, src)
			res, err := solver.ISHM(context.Background(), in, solver.ISHMOptions{
				Epsilon: 0.2, Inner: solver.ExactInner, EvaluateInitial: true, Memoize: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			obj, evals = res.Policy.Objective, res.Evaluations
		}
		b.ReportMetric(obj, "loss")
		b.ReportMetric(float64(evals), "evals")
	})
	b.Run("descent", func(b *testing.B) {
		var obj float64
		var evals int
		for i := 0; i < b.N; i++ {
			in := synAInstance(b, 6, src)
			res, err := solver.GreedyDescent(context.Background(), in, solver.GreedyDescentOptions{Inner: solver.ExactInner})
			if err != nil {
				b.Fatal(err)
			}
			obj, evals = res.Policy.Objective, res.Evaluations
		}
		b.ReportMetric(obj, "loss")
		b.ReportMetric(float64(evals), "evals")
	})
}

// BenchmarkTDMTClassify measures rule-engine throughput on EMR-shaped
// events — the substrate cost of turning raw accesses into alert bins.
func BenchmarkTDMTClassify(b *testing.B) {
	ds, err := auditgame.SimulateEMR(auditgame.EMRConfig{
		Days: 2, Employees: 50, PairsPerType: 10, BenignPerDay: 50, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// One representative event per type plus a benign one.
	ev := auditgame.AccessEvent{
		Day: 0, Actor: "x", Target: "y",
		Attrs: map[string]string{
			"actor.last": "A", "target.last": "A",
			"actor.dept": "D", "target.dept": "",
			"actor.addr": "a1", "target.addr": "a2",
			"actor.x": "1.0", "actor.y": "1.0",
			"target.x": "30.0", "target.y": "30.0",
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Engine.Classify(ev)
	}
}

// BenchmarkPolicySelect measures the per-day recourse step a deployment
// runs each morning.
func BenchmarkPolicySelect(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	in := synAInstance(b, 10, src)
	mixed, err := solver.Exact(context.Background(), in, game.Thresholds{3, 3, 3, 3})
	if err != nil {
		b.Fatal(err)
	}
	pol := auditgame.PolicyFrom(g, 10, mixed)
	r := rand.New(rand.NewSource(1))
	counts := []int{6, 5, 4, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Select(counts, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSelect measures the policy server's concurrent /v1/select
// throughput: the "session" variant is the Auditor's lock-free selection
// path alone (the server's inner loop), the "http" variant the full
// end-to-end request — JSON decode, thread-safe select, JSON encode —
// over a live listener with GOMAXPROCS parallel clients. The req/s
// metric is the headline serving number.
func BenchmarkServeSelect(b *testing.B) {
	aud, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Workload: "syna",
		Budget:   10,
		Method:   auditgame.MethodExact,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := aud.Solve(context.Background()); err != nil {
		b.Fatal(err)
	}
	counts := []int{6, 5, 4, 4}

	b.Run("session", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := aud.Select(counts); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})

	b.Run("http", func(b *testing.B) {
		srv, err := serve.New(serve.Config{
			Auditor:   aud,
			Logger:    slog.New(slog.DiscardHandler),
			Telemetry: telemetry.New(),
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		payload := []byte(`{"counts":[6,5,4,4]}`)
		client := ts.Client()
		if tr, ok := client.Transport.(*http.Transport); ok {
			// Keep enough idle conns for the parallel clients, so the
			// metric measures request handling, not TCP churn.
			tr.MaxIdleConns = 256
			tr.MaxIdleConnsPerHost = 256
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := client.Post(ts.URL+"/v1/select", "application/json", bytes.NewReader(payload))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("select: %d", resp.StatusCode)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkTrackerObserve measures the drift tracker's ingest hot path
// in a serving configuration: 8 alert types, a 28-period window, an
// installed reference model, and the detector on a weekly cadence — so
// six of seven observes are pure ring-buffer writes and the seventh
// runs the z-test fast path over a stationary window (with, at bench
// scale, the occasional tail escalation to the distance stage — the
// realistic serving mix). The observes/s metric is the headline ingest
// number; the serving target is > 1M observes/s.
func BenchmarkTrackerObserve(b *testing.B) {
	benchTrackerObserve(b, auditgame.TrackerConfig{Window: 28, Cadence: 7}, 0)
}

// BenchmarkTrackerObserveDrifted is the escalated counterpart: a
// 10-period window and cadence 1, with every count drawn 5σ above the
// installed model's mean. So every check escalates all 8 types to the
// distance stage — one window snapshot table and one TV/KL pass per
// type — and fires, and the default inter-fire interval (half the
// window) makes every fifth observe such a check; checks/op confirms
// that mix.
func BenchmarkTrackerObserveDrifted(b *testing.B) {
	benchTrackerObserve(b, auditgame.TrackerConfig{Window: 10, Cadence: 1}, 10)
}

// benchTrackerObserve times Observe on 8 types whose installed models
// are N(6+t, 2²), fed counts drawn from the same models with their
// means moved up by shift.
func benchTrackerObserve(b *testing.B, cfg auditgame.TrackerConfig, shift float64) {
	const types = 8
	tr, err := auditgame.NewTracker(types, cfg)
	if err != nil {
		b.Fatal(err)
	}
	model := make([]auditgame.Distribution, types)
	for i := range model {
		model[i] = auditgame.GaussianCounts(6+float64(i), 2, 0.995)
	}
	if err := tr.SetInstalled(model, 1); err != nil {
		b.Fatal(err)
	}
	// Pre-draw the count rows so the timed loop measures Observe, not
	// sampling.
	r := rand.New(rand.NewSource(5))
	rows := make([][]int, 256)
	for i := range rows {
		rows[i] = make([]int, types)
		for t := range model {
			rows[i][t] = auditgame.GaussianCounts(6+float64(t)+shift, 2, 0.995).Sample(r)
		}
	}
	checks0, _, _ := tr.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Observe(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	checks, _, _ := tr.Counters()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "observes/s")
	b.ReportMetric(float64(checks-checks0)/float64(b.N), "checks/op")
}

// BenchmarkTelemetryOverhead pins the telemetry cost contract on the
// serving hot path: "select" variants run the Auditor's selection path
// bare and with SessionMetrics recording (the acceptance bound is < 2%
// added cost), and the primitive variants price one recording operation
// of each registry type — a few ns, allocation-free — plus the
// structurally disabled (nil-registry) no-op.
func BenchmarkTelemetryOverhead(b *testing.B) {
	aud, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Workload: "syna",
		Budget:   10,
		Method:   auditgame.MethodExact,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := aud.Solve(context.Background()); err != nil {
		b.Fatal(err)
	}
	counts := []int{6, 5, 4, 4}
	selectLoop := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := aud.Select(counts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("select/bare", selectLoop)

	reg := telemetry.New()
	aud.SetMetrics(&auditgame.SessionMetrics{
		Selects:      reg.Counter("auditor_selects_total", "bench"),
		SelectErrors: reg.Counter("auditor_select_errors_total", "bench"),
		Observes:     reg.Counter("auditor_observes_total", "bench"),
		Installs:     reg.Counter("auditor_policy_installs_total", "bench"),
	})
	b.Run("select/metrics", selectLoop)

	b.Run("counter-inc", func(b *testing.B) {
		c := reg.Counter("bench_counter_total", "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := reg.Histogram("bench_seconds", "bench", telemetry.LatencyBuckets())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-6)
		}
	})
	b.Run("gauge-set", func(b *testing.B) {
		g := reg.Gauge("bench_gauge", "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("counter-disabled", func(b *testing.B) {
		var off *telemetry.Registry
		c := off.Counter("bench_disabled_total", "bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

// BenchmarkPalEvaluation measures the raw cost of one detection-
// probability evaluation, the innermost hot loop of every solver.
func BenchmarkPalEvaluation(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	in := synAInstance(b, 10, src)
	o := game.Ordering{0, 1, 2, 3}
	base := game.Thresholds{3, 3, 3, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A strictly increasing threshold defeats the cache, so every
		// iteration pays the full expectation over the joint support.
		thr := base.Clone()
		thr[0] = 3 + float64(i)*1e-9
		in.Pal(o, thr)
	}
}

// BenchmarkPalCacheHit measures the cached lookup path of Pal — the case
// every solver hits most. The contract is zero allocations: interned key
// hashing happens on the stack and the cached slice is returned directly.
func BenchmarkPalCacheHit(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	in := synAInstance(b, 10, src)
	o := game.Ordering{0, 1, 2, 3}
	thr := game.Thresholds{3, 3, 3, 3}
	in.Pal(o, thr) // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Pal(o, thr)
	}
}

// BenchmarkPalBatch measures evaluating all 24 Syn A orderings in one
// batched pass over the realization matrix — the shape of every
// fixed-threshold LP build and of the CGGS pricing step.
func BenchmarkPalBatch(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	in := synAInstance(b, 10, src)
	all := game.AllOrderings(4)
	base := game.Thresholds{3, 3, 3, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A strictly increasing threshold defeats the cache, so every
		// iteration evaluates all 24 orderings from scratch.
		thr := base.Clone()
		thr[0] = 3 + float64(i)*1e-9
		in.PalBatch(all, thr)
	}
}

// BenchmarkRestrictedLP measures one master-LP solve of the column
// generation loop on Syn A with all 24 orderings.
func BenchmarkRestrictedLP(b *testing.B) {
	g := game.SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		b.Fatal(err)
	}
	in := synAInstance(b, 10, src)
	all := game.AllOrderings(4)
	thr := game.Thresholds{3, 3, 3, 3}
	in.Pal(all[0], thr) // warm the Pal cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SolveFixed(all, thr); err != nil {
			b.Fatal(err)
		}
	}
}
