package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"auditgame/internal/game"
	"auditgame/internal/refit"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// bank-drift solves the scaled bank game — 2,000 entities, a 512-
// realization Monte-Carlo bank, budget fraction 0.1 — at 32, 40 and 48
// alert types. Each round solves every game cold, then warm-refits it on
// the same game after a 2% rate drift in every count template (the
// BenchmarkWarmRefit scale shape).
//
// The games are a fixed panel rather than drawn from the seed: at these
// sizes a drawn game's master LP hits the simplex iteration limit in
// about 1 of 50 warm refits at 32 types and 3 of 10 at 40, and a
// benchmark input must not fail. The seed only rotates the order in
// which a round solves the panel.
var bankPanel = []struct {
	types          int
	gameSeed, bank int64
}{{32, 1, 1}, {40, 1, 1}, {48, 1, 2}}

const (
	bankEntities = 2000
	bankSize     = 512
	bankFraction = 0.1
	bankDrift    = 1.02
)

// bankGame is one sized game of the workload with its drifted twin.
type bankGame struct {
	nT                  int
	base, drifted       *game.Game
	baseSrc, driftedSrc sample.Source
	thr                 game.Thresholds
	budget              float64
	tv                  []float64 // per-type total variation, base → drifted
	coldLoss            float64   // first cold loss seen, for the repeat check
}

// buildBankGame builds the game pair for nT types from the game and bank
// seeds, timing the set-up layers into t, and returns it with a first
// base instance.
func buildBankGame(nT int, seed, bankSeed int64, t *setupTimes) (*bankGame, *game.Instance, error) {
	bg := &bankGame{nT: nT, coldLoss: math.NaN()}
	mk := func(scale float64) (*game.Game, error) {
		tmpl := workload.DefaultTemplates()
		for i := range tmpl {
			switch tmpl[i].Spec.Kind {
			case "gaussian":
				tmpl[i].Spec.Mean *= scale
			case "poisson":
				tmpl[i].Spec.Lambda *= scale
			}
		}
		g, _, err := workload.Scaled{Entities: bankEntities, AlertTypes: nT, Seed: seed, Templates: tmpl}.Build(workload.Scale{})
		return g, err
	}
	t0 := time.Now()
	var err error
	if bg.base, err = mk(1); err != nil {
		return nil, nil, err
	}
	if bg.drifted, err = mk(bankDrift); err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	bg.baseSrc = sample.NewBank(bg.base.Dists(), bankSize, bankSeed)
	bg.driftedSrc = sample.NewBank(bg.drifted.Dists(), bankSize, bankSeed)
	t2 := time.Now()
	bg.thr = bg.base.ThresholdCaps()
	for _, at := range bg.base.Types {
		bg.budget += at.Dist.Mean() * at.Cost
	}
	bg.budget *= bankFraction
	bg.tv = make([]float64, nT)
	for i := range bg.tv {
		bg.tv[i] = refit.TotalVariation(bg.base.Types[i].Dist, bg.drifted.Types[i].Dist)
	}
	in, err := bg.instance(false)
	if err != nil {
		return nil, nil, err
	}
	if _, err := bg.instance(true); err != nil {
		return nil, nil, err
	}
	t3 := time.Now()
	t.build += t1.Sub(t0).Seconds()
	t.bank += t2.Sub(t1).Seconds()
	t.instance += t3.Sub(t2).Seconds()
	return bg, in, nil
}

// instance builds a fresh evaluation instance (empty pal cache) of the
// base or drifted game, so every timed solve pays the full re-solve.
func (bg *bankGame) instance(drifted bool) (*game.Instance, error) {
	if drifted {
		return game.NewInstance(bg.drifted, bg.budget, bg.driftedSrc)
	}
	return game.NewInstance(bg.base, bg.budget, bg.baseSrc)
}

// bankSolve is one cold solve plus its warm refit on one game.
type bankSolve struct {
	cold, warm   float64 // seconds
	coldW, warmW interval
	alloc        uint64 // bytes allocated by the cold solve
	rounds       int    // master solves, cold + warm
	coldPol      *solver.MixedPolicy
	coldIn       *game.Instance
	state        *solver.SolveState
	coldStats    solver.CGGSStats
	warmStats    solver.CGGSStats
	warmAccount  solver.WarmStats
}

// solvePair runs the cold solve and the warm refit of bg, under ctx, and
// checks both outputs.
func (bg *bankGame) solvePair(ctx context.Context, trace func() context.Context) (*bankSolve, error) {
	inBase, err := bg.instance(false)
	if err != nil {
		return nil, err
	}
	inDrift, err := bg.instance(true)
	if err != nil {
		return nil, err
	}
	s := &bankSolve{state: solver.NewSolveState(solver.CGGSOptions{}), coldIn: inBase}
	c := ctx
	if trace != nil {
		c = trace()
	}
	a0 := allocBytes()
	s.coldW.Start = clock()
	pol, err := s.state.Solve(c, inBase, bg.thr)
	s.coldW.End = clock()
	s.alloc = allocBytes() - a0
	if err != nil {
		return nil, fmt.Errorf("cold solve (%d types): %w", bg.nT, err)
	}
	s.coldPol, s.coldStats = pol, s.state.Stats()
	if math.IsNaN(bg.coldLoss) {
		bg.coldLoss = pol.Objective
	} else if pol.Objective != bg.coldLoss {
		return nil, fmt.Errorf("cold loss (%d types) %.17g differs from this run's first solve %.17g", bg.nT, pol.Objective, bg.coldLoss)
	}

	if trace != nil {
		c = trace()
	}
	s.warmW.Start = clock()
	wpol, err := s.state.Refit(c, inDrift, bg.thr, bg.tv)
	s.warmW.End = clock()
	if err != nil {
		return nil, fmt.Errorf("warm refit (%d types): %w", bg.nT, err)
	}
	s.warmStats, s.warmAccount = s.state.Stats(), s.state.WarmStats()
	if !s.warmAccount.Warm {
		return nil, fmt.Errorf("refit (%d types) fell back to a cold solve", bg.nT)
	}
	// The warm pool is seeded with the cold solve's columns, so its loss
	// can be no worse than the cold mixed strategy's under the drifted
	// model.
	if seeded := inDrift.Loss(pol.Q, pol.Po, bg.thr); wpol.Objective > seeded+1e-7*math.Max(1, math.Abs(seeded)) {
		return nil, fmt.Errorf("warm loss (%d types) %.9g is worse than its seeded pool's %.9g", bg.nT, wpol.Objective, seeded)
	}
	s.cold, s.warm = s.coldW.End-s.coldW.Start, s.warmW.End-s.warmW.Start
	s.rounds = s.coldStats.MasterSolves + s.warmStats.MasterSolves
	return s, nil
}

func runBankDrift(r *run) error {
	var reps []setupTimes
	var setup []float64
	var games []*bankGame
	var firstIn *game.Instance
	for rep := 0; rep < 7; rep++ {
		var t setupTimes
		games = games[:0]
		for i := range bankPanel {
			p := bankPanel[(i+int(r.seed%int64(len(bankPanel)))+len(bankPanel))%len(bankPanel)]
			bg, in, err := buildBankGame(p.types, p.gameSeed, p.bank, &t)
			if err != nil {
				return err
			}
			games = append(games, bg)
			firstIn = in
		}
		reps = append(reps, t)
		setup = append(setup, t.total())
	}
	r.timing("setup_reps_s", setup, "s", 1)
	r.set("setup_s", median(setup), "s", "build base+drifted games, banks and instances at 32, 40, 48 types; median of 7")

	var cold, warm, alloc []float64
	var rounds float64
	var tr *bankTrace
	if r.traced {
		tr = &bankTrace{cg: newColgen()}
	}
	deadline := time.Now().Add(r.seconds)
	for iter := 0; until(deadline, iter, 2); iter++ {
		var c, w, a, n float64
		ok := true
		for _, bg := range games {
			s, err := bg.solvePair(r.ctx, nil)
			r.host.sample()
			r.op(err)
			if err != nil {
				ok = false
				continue
			}
			c, w, a, n = c+s.cold, w+s.warm, a+float64(s.alloc), n+float64(s.rounds)
		}
		if ok {
			cold, warm, alloc = append(cold, c), append(warm, w), append(alloc, a)
			rounds += n
		}
		if tr != nil {
			for _, bg := range games {
				err := tr.solve(r.ctx, bg)
				r.op(err)
			}
		}
	}
	coldS := r.timing("cold_solve_s", cold, "s", 1)
	warmS := r.timing("warm_refit_s", warm, "s", 1)
	for _, bg := range games {
		r.line(fmt.Sprintf("cold_loss.types%d", bg.nT), bg.coldLoss, "loss", "every cold solve of the run must repeat it")
	}
	r.set("primary_ms", coldS.Fast*1e3, "ms", "cold_solve_s p10: cold CGGS solves at 32 + 40 + 48 types")
	r.set("secondary_ms", warmS.Fast*1e3, "ms", "warm_refit_s p10: warm refits at 32 + 40 + 48 types after a 2% drift")
	// Every solve of the panel repeats its loss, and so its master-solve
	// count: the rounds of one pass over the panel are a fixed amount of
	// work, timed by the p10 cold and warm passes.
	perPass := rounds / float64(max(len(cold), 1))
	r.set("throughput_per_s", perPass/(coldS.Fast+warmS.Fast), "1/s", "pricing rounds (master solves) per solve-second, over the p10 passes")
	r.set("alloc_mb_per_op", median(alloc)/1e6, "MB", "alloc_mb_per_solve: bytes allocated per round of cold solves")

	if tr != nil {
		reportSetup(r, reps, firstIn)
		tr.report(r, coldS.Median+warmS.Median)
	}
	return nil
}

// bankTrace is the traced half of bank-drift: the same solves with a
// trace attached to each, read back for the LP-master, pricing and
// warm-start layers.
type bankTrace struct {
	cg            *colgen
	covered, wall float64 // solve wall covered by spans, and solve wall
	pairs         int     // cold + warm pairs traced
	palEvals      int
	cachePals     int
	palbatchUS    []float64
}

// solve runs one traced cold solve and warm refit of bg.
func (t *bankTrace) solve(ctx context.Context, bg *bankGame) error {
	type pending struct {
		tr   *telemetry.Trace
		base float64
	}
	var traces []pending
	trace := func() context.Context {
		tr := telemetry.NewTrace()
		traces = append(traces, pending{tr, clock()})
		return telemetry.WithTrace(ctx, tr)
	}
	s, err := bg.solvePair(ctx, trace)
	if err != nil {
		return err
	}
	for _, p := range traces {
		t.cg.spans.add(p.tr.Data(), p.base)
	}
	t.cg.note(s.coldStats, 1)
	t.cg.note(s.warmStats, s.warmAccount.ColumnsReused)
	t.cg.noteWarm(s.warmAccount)
	leaf := t.cg.spans.intervals(solverSpans...)
	t.covered += covered(leaf, s.coldW.Start, s.coldW.End) + covered(leaf, s.warmW.Start, s.warmW.End)
	t.wall += s.cold + s.warm
	t.pairs++
	t.palEvals += s.coldStats.PalEvals + s.warmStats.PalEvals
	p, _, _ := s.coldIn.CacheStats()
	t.cachePals += p
	// PalBatchNoCache still serves cached rows, so the kernel is timed
	// on a fresh instance, whose cache is empty and stays empty.
	fresh, err := bg.instance(false)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		d, _ := timeIt(func() error { fresh.PalBatchNoCache(s.coldPol.Q, bg.thr); return nil })
		t.palbatchUS = append(t.palbatchUS, d/float64(len(s.coldPol.Q))*1e6)
	}
	return nil
}

// report sets the per-layer metrics; untraced is the untraced median of
// one round's cold + warm solve time, the base of the tracing overhead.
func (t *bankTrace) report(r *run, untraced float64) {
	games := float64(len(bankPanel))
	rounds := float64(t.pairs) / games
	t.cg.report(r, rounds, "round (32 + 40 + 48 types, cold + warm)")
	r.set("game.pal_evals", float64(t.palEvals)/rounds, "count", "uncached pal evaluations per round")
	r.set("game.cache_pals", float64(t.cachePals)/rounds, "count", "pal cache entries after the cold solves of a round")
	r.set("game.palbatch_us_per_ordering", median(t.palbatchUS), "us", "timed PalBatchNoCache over the cold pool")
	r.set("trace.attributed_frac", t.covered/t.wall, "frac", "solve wall covered by cggs.* spans, cold and warm")
	r.line("trace.unattributed_frac", 1-t.covered/t.wall, "frac", "")
	r.set("trace.overhead_frac", (t.wall/rounds)/untraced-1, "frac", "traced ÷ untraced round solve time − 1")
}
