package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// paper-syna runs the paper's controlled-evaluation solves on Syn A:
// the Table III brute-force optimum at B=2 and ISHM with the CGGS inner
// solver at B ∈ {4, 10}, ε = 0.25 (the Table V slice). Syn A is the
// paper's fixed game with exactly enumerated expectations, so the seed
// does not change its inputs and every loss is pinned.

// Pinned outputs of this workload (Syn A has no random inputs).
const (
	table3LossB2      = 12.245687146610166
	table3Explored    = 7675
	table5LossB4      = 7.6128502040154622
	table5LossB10     = -3.3868379873225143
	synaLossTolerance = 1e-9
)

// synaSetups is how many set-ups run before each brute-force + ISHM pair.
const synaSetups = 4

// synaInstance builds a Syn A evaluation instance at budget, timing the
// three set-up layers into t (seconds, accumulated).
func synaInstance(budget float64, t *setupTimes) (*game.Instance, error) {
	t0 := time.Now()
	g, _, err := workload.Build("syna", workload.Scale{})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	in, err := game.NewInstance(g, budget, src)
	t3 := time.Now()
	if t != nil {
		t.build += t1.Sub(t0).Seconds()
		t.bank += t2.Sub(t1).Seconds()
		t.instance += t3.Sub(t2).Seconds()
	}
	return in, err
}

// setupTimes splits set-up time across the workload, sample and game
// layers.
type setupTimes struct{ build, bank, instance float64 }

func (t setupTimes) total() float64 { return t.build + t.bank + t.instance }

// reportSetup sets the set-up per-layer metrics, each the median over
// the set-up repetitions, and the shape of in when one is given.
func reportSetup(r *run, reps []setupTimes, in *game.Instance) {
	var b, s, i []float64
	for _, t := range reps {
		b, s, i = append(b, t.build), append(s, t.bank), append(i, t.instance)
	}
	r.set("workload.build_s", median(b), "s", "game construction per set-up")
	r.set("sample.bank_s", median(s), "s", "realization source per set-up")
	r.set("game.new_instance_s", median(i), "s", "evaluation instance per set-up")
	if in == nil {
		return
	}
	r.set("game.realizations", float64(in.NumRealizations()), "count", "")
	r.set("game.classes", float64(in.NumClasses()), "count", "")
}

func checkLoss(what string, got, want float64) error {
	if math.Abs(got-want) > synaLossTolerance {
		return fmt.Errorf("%s loss %.17g, want %.17g", what, got, want)
	}
	return nil
}

// newSlice builds fresh instances for the Table V slice (B=4, B=10).
func newSlice() (in4, in10 *game.Instance, err error) {
	if in4, err = synaInstance(4, nil); err != nil {
		return nil, nil, err
	}
	in10, err = synaInstance(10, nil)
	return in4, in10, err
}

// runSlice runs the Table V slice — ISHM+CGGS at B=4 then B=10 — with
// the given inner solver and returns both results and the run-clock
// window the two solves occupied.
func runSlice(ctx context.Context, in4, in10 *game.Instance, inner solver.Inner) (r4, r10 *solver.ISHMResult, w interval, err error) {
	opts := solver.ISHMOptions{Epsilon: 0.25, Inner: inner, EvaluateInitial: true, Memoize: true, Workers: runtime.GOMAXPROCS(0)}
	w.Start = clock()
	if r4, err = solver.ISHM(ctx, in4, opts); err == nil {
		r10, err = solver.ISHM(ctx, in10, opts)
	}
	w.End = clock()
	return r4, r10, w, err
}

func checkSlice(r4, r10 *solver.ISHMResult) error {
	if err := checkLoss("Table V B=4", r4.Policy.Objective, table5LossB4); err != nil {
		return err
	}
	return checkLoss("Table V B=10", r10.Policy.Objective, table5LossB10)
}

func runPaperSynA(r *run) error {
	// Set-up: the three Syn A instances. A set-up takes a few
	// milliseconds, and a block of them at process start read from 3.4 to
	// 10 ms (median of 101) from run to run on a steady host, so the
	// repetitions are spread over the whole run, synaSetups before each
	// solve pair, and see the process as the solves do.
	var reps []setupTimes
	var setup []float64
	var in2 *game.Instance
	setUp := func() error {
		var t setupTimes
		for _, b := range []float64{2, 4, 10} {
			in, err := synaInstance(b, &t)
			if err != nil {
				return err
			}
			in2 = in
		}
		reps = append(reps, t)
		setup = append(setup, t.total())
		return nil
	}

	var bf, ishm, bfAlloc []float64
	var ishmEvals float64
	var tr *synaTrace
	if r.traced {
		tr = &synaTrace{cg: newColgen()}
	}
	deadline := time.Now().Add(r.seconds)
	for iter := 0; until(deadline, iter, 3); iter++ {
		for range synaSetups {
			if err := setUp(); err != nil {
				return err
			}
		}
		in, err := synaInstance(2, nil)
		if err != nil {
			return err
		}
		var res *solver.BruteForceResult
		a0 := allocBytes()
		d, err := timeIt(func() error {
			res, err = solver.BruteForce(r.ctx, in)
			return err
		})
		alloc := allocBytes() - a0
		r.host.sample()
		if err == nil {
			err = checkLoss("Table III B=2", res.Policy.Objective, table3LossB2)
		}
		if err == nil && res.Explored != table3Explored {
			err = fmt.Errorf("brute force explored %d grid points, want %d", res.Explored, table3Explored)
		}
		r.op(err)
		if err == nil {
			bf = append(bf, d)
			bfAlloc = append(bfAlloc, float64(alloc))
		}

		in4, in10, err := newSlice()
		if err != nil {
			return err
		}
		r4, r10, w, err := runSlice(r.ctx, in4, in10, solver.CGGSInner)
		r.host.sample()
		if err == nil {
			err = checkSlice(r4, r10)
		}
		r.op(err)
		if err == nil {
			ishm = append(ishm, w.End-w.Start)
			ishmEvals += float64(r4.Evaluations + r10.Evaluations)
		}

		if tr != nil {
			if err := tr.iteration(r); err != nil {
				return err
			}
		}
	}

	r.timing("setup_reps_s", setup, "s", 1)
	r.set("setup_s", median(setup), "s", fmt.Sprintf("build Syn A + enumerate + 3 instances; median of %d", len(setup)))
	bfS := r.timing("bruteforce_solve_s", bf, "s", 1)
	ishmS := r.timing("ishm_solve_s", ishm, "s", 1)
	r.set("primary_ms", bfS.Fast*1e3, "ms", "bruteforce_solve_s p10: one Table III solve at B=2")
	r.set("secondary_ms", ishmS.Fast*1e3, "ms", "ishm_solve_s p10: one ISHM+CGGS Table V slice, B=4 then B=10, ε=0.25")
	perSlice := ishmEvals / float64(max(len(ishm), 1))
	r.set("throughput_per_s", (table3Explored+perSlice)/(bfS.Fast+ishmS.Fast), "1/s",
		"threshold vectors evaluated per solve-second (the Table VII unit), over the p10 solves")
	r.set("alloc_mb_per_op", median(bfAlloc)/1e6, "MB", "alloc_mb_per_solve: bytes allocated per brute-force solve")

	if tr != nil {
		reportSetup(r, reps, in2)
		tr.report(r, bfS.Median, ishmS.Median)
	}
	return nil
}

func sumF(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// synaTrace is the traced half of paper-syna: a timed replay of the
// brute-force grid through the public Eq. 1 sweep and LP entry points,
// and a traced ISHM slice with a timing wrapper around the inner solver.
type synaTrace struct {
	sweep, fixed, replayWall []float64
	fixedSolves              int

	ishmWall                  []float64
	innerCovered, leafCovered float64 // run-clock coverage of the slice windows
	innerSum, selfSum         float64
	innerCalls                int
	unique, evaluations       int
	palEvals, cachePals       int
	palbatchUS                []float64

	// mu guards inner and cg, which the ISHM workers' inner calls
	// append to concurrently.
	mu    sync.Mutex
	inner []interval
	cg    *colgen
}

// replayBruteForce re-runs solver.BruteForce's work step by step — one
// PalGridSweep over the integer threshold grid, then one SolveFixedPals
// per grid point with Σb ≥ min(B, Σ caps) — timing each call, and returns
// the best loss found.
func (t *synaTrace) replayBruteForce(in *game.Instance) (float64, error) {
	t0 := time.Now()
	nT := in.G.NumTypes()
	steps := make([]int, nT)
	var capSum float64
	for i := range steps {
		_, hi := in.G.Types[i].Dist.Support()
		steps[i] = hi
		capSum += float64(hi) * in.G.Types[i].Cost
	}
	minSum := math.Min(in.Budget, capSum)
	all := game.AllOrderings(nT)
	s0 := time.Now()
	pg := in.PalGridSweep(all, steps)
	t.sweep = append(t.sweep, time.Since(s0).Seconds())
	if pg == nil {
		return 0, fmt.Errorf("pal grid sweep refused the Syn A grid")
	}
	best := math.Inf(1)
	ks := make([]int, nT)
	var fixed float64
	var rec func(i int, sum float64) error
	rec = func(i int, sum float64) error {
		if i == nT {
			if sum < minSum-1e-9 {
				return nil
			}
			f0 := time.Now()
			res, err := in.SolveFixedPals(all, pg.Pals(ks))
			fixed += time.Since(f0).Seconds()
			t.fixedSolves++
			if err != nil {
				return err
			}
			best = math.Min(best, res.Objective)
			return nil
		}
		for k := 0; k <= steps[i]; k++ {
			ks[i] = k
			if err := rec(i+1, sum+float64(k)*in.G.Types[i].Cost); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0, 0)
	t.fixed = append(t.fixed, fixed)
	t.replayWall = append(t.replayWall, time.Since(t0).Seconds())
	return best, err
}

// iteration runs one traced replay and one traced ISHM slice.
func (t *synaTrace) iteration(r *run) error {
	in, err := synaInstance(2, nil)
	if err != nil {
		return err
	}
	best, err := t.replayBruteForce(in)
	if err == nil {
		err = checkLoss("replayed Table III B=2", best, table3LossB2)
	}
	r.op(err)

	// The inner wrapper is solver.CGGSInner — CGGS with default options —
	// called through CGGSWithStats for its work counters, with a fresh
	// trace per call so that no call's spans hit the trace cap.
	wrapper := func(ctx context.Context, in *game.Instance, b game.Thresholds) (*solver.MixedPolicy, error) {
		tr := telemetry.NewTrace()
		start := clock()
		pol, st, err := solver.CGGSWithStats(telemetry.WithTrace(ctx, tr), in, b, solver.CGGSOptions{})
		end := clock()
		t.mu.Lock()
		t.inner = append(t.inner, interval{start, end})
		t.cg.spans.add(tr.Data(), start)
		if err == nil {
			t.cg.note(st, 1)
		}
		t.mu.Unlock()
		return pol, err
	}
	in4, in10, err := newSlice()
	if err != nil {
		return err
	}
	r4, r10, w, err := runSlice(r.ctx, in4, in10, wrapper)
	if err == nil {
		err = checkSlice(r4, r10)
	}
	r.op(err)
	if err != nil {
		return nil
	}
	// ISHM has joined its workers. Inner calls of earlier slices started
	// before this slice's window; their spans clip away below.
	var calls []interval
	for _, c := range t.inner {
		if c.Start >= w.Start {
			calls = append(calls, c)
		}
	}
	leaf := t.cg.spans.intervals("cggs.master", "cggs.price")
	wall := w.End - w.Start
	t.ishmWall = append(t.ishmWall, wall)
	t.innerCalls += len(calls)
	t.innerSum += sumDur(calls)
	t.innerCovered += covered(calls, w.Start, w.End)
	t.leafCovered += covered(leaf, w.Start, w.End)
	t.selfSum += selfTime(w, calls)
	t.unique += r4.UniqueEvaluations + r10.UniqueEvaluations
	t.evaluations += r4.Evaluations + r10.Evaluations
	t.palEvals += in4.PalEvals() + in10.PalEvals()
	p4, _, _ := in4.CacheStats()
	p10, _, _ := in10.CacheStats()
	t.cachePals += p4 + p10

	// Kernel cost of the final pool: one uncached batch evaluation of
	// the B=10 policy's orderings at its thresholds, on a fresh instance
	// because PalBatchNoCache still serves rows already cached.
	pol := r10.Policy
	fresh, err := synaInstance(10, nil)
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		d, _ := timeIt(func() error { fresh.PalBatchNoCache(pol.Q, pol.Thresholds); return nil })
		t.palbatchUS = append(t.palbatchUS, d/float64(len(pol.Q))*1e6)
	}
	return nil
}

// report sets the per-layer metrics of the traced iterations. bf and
// ishm are the untraced medians, the base of the tracing overhead.
func (t *synaTrace) report(r *run, bf, ishm float64) {
	n := float64(len(t.ishmWall))
	replay, ishmTraced := median(t.replayWall), median(t.ishmWall)
	r.timing("traced.bruteforce_replay_s", t.replayWall, "s", 1)
	r.timing("traced.ishm_solve_s", t.ishmWall, "s", 1)
	r.set("game.grid_sweep_s", median(t.sweep), "s", "timed PalGridSweep per brute-force solve")
	r.set("lp.fixed_pals_s", median(t.fixed), "s", "timed SolveFixedPals per brute-force solve")
	r.set("lp.fixed_solves", float64(t.fixedSolves)/float64(len(t.fixed)), "count", "per brute-force solve")
	r.set("game.pal_evals", float64(t.palEvals)/n, "count", "uncached pal evaluations per ISHM slice")
	r.set("game.cache_pals", float64(t.cachePals)/n, "count", "pal cache entries after an ISHM slice")
	r.set("game.palbatch_us_per_ordering", median(t.palbatchUS), "us", "timed PalBatchNoCache over the final B=10 pool")
	t.cg.report(r, n, "ISHM slice")
	r.set("solver.ishm_inner_s", t.innerSum/n, "s", "Σ timed inner calls per slice (workers overlap)")
	r.set("solver.ishm_inner_calls", float64(t.innerCalls)/n, "count", "per slice")
	r.set("solver.ishm_self_s", t.selfSum/n, "s", "slice wall − union of inner calls")
	if t.evaluations > 0 {
		r.set("solver.ishm_unique_frac", float64(t.unique)/float64(t.evaluations), "frac", "")
	}
	bfAttr := median(t.sweep) + median(t.fixed)
	ishmWall := sumF(t.ishmWall)
	r.line("trace.bruteforce_attributed_frac", bfAttr/replay, "frac", "(grid sweep + fixed-pal LPs) ÷ replay wall")
	r.line("trace.ishm_inner_covered_frac", t.innerCovered/ishmWall, "frac", "union of inner calls ÷ slice wall")
	r.line("trace.ishm_attributed_frac", t.leafCovered/ishmWall, "frac", "union of cggs.master ∪ cggs.price ÷ slice wall")
	r.line("trace.ishm_unattributed_frac", 1-t.leafCovered/ishmWall, "frac", "")
	r.set("trace.attributed_frac", (bfAttr+t.leafCovered/n)/(replay+ishmWall/n), "frac",
		"solve wall covered by named layers, brute force and ISHM together")
	r.set("trace.overhead_frac", (replay+ishmTraced)/(bf+ishm)-1, "frac", "traced ÷ untraced solve medians − 1")
}
