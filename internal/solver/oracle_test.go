package solver

import (
	"context"
	"math"
	"runtime"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/workload"
)

// oracleTestInstance builds a bank-sampled instance of a named workload
// at the given scale, budgeted at a tenth of the expected full audit
// cost (the chronically under-resourced regime CGGS is for).
func oracleTestInstance(t testing.TB, name string, sc workload.Scale, bank int) (*game.Instance, game.Thresholds) {
	t.Helper()
	g, caps, err := workload.Build(name, sc)
	if err != nil {
		t.Fatal(err)
	}
	var fullCost float64
	for _, at := range g.Types {
		fullCost += at.Dist.Mean() * at.Cost
	}
	src := sample.NewBank(g.Dists(), bank, sc.Seed+1)
	in, err := game.NewInstance(g, 0.1*fullCost, src)
	if err != nil {
		t.Fatal(err)
	}
	return in, caps
}

// greedyOrderingReference is the non-incremental pricing oracle: all
// one-type extensions of each step priced as one batch, every
// candidate's prefix re-walked in full through the batched kernel, and
// the candidates' pal vectors kept out of the cache. It is the golden
// reference the incremental oracle is pinned against; eps and st are
// unused, so it fits SolveState.price.
func greedyOrderingReference(in *game.Instance, res *game.LPResult, b game.Thresholds, _ float64, _ *oracleStats) (game.Ordering, float64, error) {
	nT := in.G.NumTypes()
	partial := make(game.Ordering, 0, nT)
	used := make([]bool, nT)
	backing := make([]int, nT*nT)
	cands := make([]game.Ordering, 0, nT)
	candType := make([]int, 0, nT)
	var bestRC float64
	for len(partial) < nT {
		cands, candType = cands[:0], candType[:0]
		w := len(partial) + 1
		for t := 0; t < nT; t++ {
			if used[t] {
				continue
			}
			c := backing[len(cands)*w : (len(cands)+1)*w : (len(cands)+1)*w]
			copy(c, partial)
			c[len(partial)] = t
			cands = append(cands, c)
			candType = append(candType, t)
		}
		rcs := in.ReducedCosts(res, in.PalBatchNoCache(cands, b))
		bestT := -1
		bestRC = math.Inf(1)
		for j, rc := range rcs {
			if rc < bestRC {
				bestRC, bestT = rc, candType[j]
			}
		}
		partial = append(partial, bestT)
		used[bestT] = true
	}
	return partial, bestRC, nil
}

// TestOracleEquivalenceGolden pins the incremental oracle against the
// reference oracle end to end: on every workload the two CGGS runs must
// emit the identical column sequence, the same loss to 1e-9 (they agree
// bitwise in practice), and bitwise-identical pal vectors per column.
func TestOracleEquivalenceGolden(t *testing.T) {
	cases := []struct {
		name string
		sc   workload.Scale
		bank int
	}{
		{"syna", workload.Scale{}, 256},
		{"emr", workload.Scale{}, 256},
		{"credit", workload.Scale{}, 256},
		{"heavytail", workload.Scale{}, 256},
		{"scaled", workload.Scale{Entities: 600, AlertTypes: 32, Seed: 3}, 512},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inInc, b := oracleTestInstance(t, tc.name, tc.sc, tc.bank)
			inRef, _ := oracleTestInstance(t, tc.name, tc.sc, tc.bank)
			ctx := context.Background()
			polInc, _, err := CGGSWithStats(ctx, inInc, b, CGGSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ref := NewSolveState(CGGSOptions{})
			ref.price = greedyOrderingReference
			polRef, err := ref.Solve(ctx, inRef, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(polInc.Q) != len(polRef.Q) {
				t.Fatalf("%s: %d columns (incremental) vs %d (reference)", tc.name, len(polInc.Q), len(polRef.Q))
			}
			for i := range polInc.Q {
				if polInc.Q[i].Key() != polRef.Q[i].Key() {
					t.Fatalf("%s: column %d diverged: %v vs %v", tc.name, i, polInc.Q[i], polRef.Q[i])
				}
			}
			if math.Abs(polInc.Objective-polRef.Objective) > 1e-9 {
				t.Fatalf("%s: loss %v (incremental) vs %v (reference)", tc.name, polInc.Objective, polRef.Objective)
			}
			palsInc := inInc.PalBatch(polInc.Q, b)
			palsRef := inRef.PalBatch(polRef.Q, b)
			for i := range palsInc {
				for ty := range palsInc[i] {
					if math.Float64bits(palsInc[i][ty]) != math.Float64bits(palsRef[i][ty]) {
						t.Fatalf("%s: pal(Q[%d])[%d] = %v vs %v", tc.name, i, ty, palsInc[i][ty], palsRef[i][ty])
					}
				}
			}
		})
	}
}

// TestOracleDeterminismAcrossWorkers is the worker-count hammer: the
// same solve at 1, 4, and GOMAXPROCS workers must produce the identical
// column sequence and bitwise-identical objective and mixed strategy.
// Run under -race in CI.
func TestOracleDeterminismAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	type outcome struct {
		keys []string
		obj  float64
		po   []float64
	}
	var outcomes []outcome
	for _, w := range workerCounts {
		in, b := oracleTestInstance(t, "scaled", workload.Scale{Entities: 400, AlertTypes: 24, Seed: 7}, 1500)
		in.Workers = w
		pol, err := CGGS(context.Background(), in, b, CGGSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{obj: pol.Objective, po: pol.Po}
		for _, q := range pol.Q {
			o.keys = append(o.keys, q.Key())
		}
		outcomes = append(outcomes, o)
	}
	for i := 1; i < len(outcomes); i++ {
		if len(outcomes[i].keys) != len(outcomes[0].keys) {
			t.Fatalf("workers=%d: %d columns vs %d at workers=1",
				workerCounts[i], len(outcomes[i].keys), len(outcomes[0].keys))
		}
		for k := range outcomes[0].keys {
			if outcomes[i].keys[k] != outcomes[0].keys[k] {
				t.Fatalf("workers=%d: column %d = %q vs %q at workers=1",
					workerCounts[i], k, outcomes[i].keys[k], outcomes[0].keys[k])
			}
		}
		if math.Float64bits(outcomes[i].obj) != math.Float64bits(outcomes[0].obj) {
			t.Fatalf("workers=%d: objective %v vs %v at workers=1",
				workerCounts[i], outcomes[i].obj, outcomes[0].obj)
		}
		for k := range outcomes[0].po {
			if math.Float64bits(outcomes[i].po[k]) != math.Float64bits(outcomes[0].po[k]) {
				t.Fatalf("workers=%d: po[%d] = %v vs %v at workers=1",
					workerCounts[i], k, outcomes[i].po[k], outcomes[0].po[k])
			}
		}
	}
}

// TestOraclePruningSound cross-checks every incremental greedy step
// against exhaustive candidate pricing on games small enough to brute
// force: the step's winner must be the first-index argmin of the exact
// reduced costs over ALL candidates — so a pruned candidate can never
// have held the minimum — with the winning reduced cost bitwise equal.
func TestOraclePruningSound(t *testing.T) {
	for _, budget := range []float64{1, 2, 3, 5} {
		in := testInstance(t, budget)
		b := game.Thresholds{2, 2, 2}
		seedQ := []game.Ordering{BenefitOrdering(in.G), {2, 1, 0}, {1, 2, 0}}
		crossCheckGreedySteps(t, in, b, seedQ, budget)
	}
	// An 8-type instance keeps the exhaustive cross-check tractable while
	// exercising deeper prefixes and larger candidate sets than the 3-type
	// hand game.
	in, b := oracleTestInstance(t, "scaled", workload.Scale{Entities: 200, AlertTypes: 8, Seed: 11}, 256)
	seedQ := []game.Ordering{BenefitOrdering(in.G)}
	crossCheckGreedySteps(t, in, b, seedQ, in.Budget)
}

func crossCheckGreedySteps(t *testing.T, in *game.Instance, b game.Thresholds, seedQ []game.Ordering, budget float64) {
	t.Helper()
	nT := in.G.NumTypes()
	res, err := in.SolveFixed(seedQ, b)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := game.NewPrefixPricer(in, b)
	if err != nil {
		t.Fatal(err)
	}
	W := in.DualTypeWeights(res)
	ub := make([]float64, nT)
	for ty := range ub {
		ub[ty] = math.Inf(1)
	}
	used := make([]bool, nT)
	totalPruned := 0
	for step := 0; step < nT; step++ {
		var cands []int
		var ext []game.Ordering
		for ty := 0; ty < nT; ty++ {
			if !used[ty] {
				cands = append(cands, ty)
				ext = append(ext, append(pp.Prefix().Clone(), ty))
			}
		}
		out := in.ExtendReducedCosts(res, pp, cands, W, ub)
		if out.Evaluated+out.Pruned != len(cands) {
			t.Fatalf("B=%v step=%d: evaluated %d + pruned %d != %d candidates",
				budget, step, out.Evaluated, out.Pruned, len(cands))
		}
		totalPruned += out.Pruned
		rcs := in.ReducedCosts(res, in.PalBatchNoCache(ext, b))
		wantT, wantRC := -1, math.Inf(1)
		for j, rc := range rcs {
			if rc < wantRC {
				wantRC, wantT = rc, cands[j]
			}
		}
		if out.BestType != wantT {
			t.Fatalf("B=%v step=%d: best type %d, exhaustive says %d (rcs %v)",
				budget, step, out.BestType, wantT, rcs)
		}
		if math.Float64bits(out.BestRC) != math.Float64bits(wantRC) {
			t.Fatalf("B=%v step=%d: best rc %v, exhaustive says %v", budget, step, out.BestRC, wantRC)
		}
		pp.Advance(out.BestType, out.BestDelta)
		used[out.BestType] = true
	}
	t.Logf("B=%v: %d candidates pruned across %d steps", budget, totalPruned, nT)
}

// TestOracleCacheBounded asserts the incremental oracle leaves no
// footprint in the instance's pal cache across a scaled solve: cached
// orderings stay within the column pool, nowhere near the ~|T|²/2
// candidate prefixes priced per generated column.
func TestOracleCacheBounded(t *testing.T) {
	in, b := oracleTestInstance(t, "scaled", workload.Scale{Entities: 400, AlertTypes: 24, Seed: 5}, 512)
	_, stats, err := CGGSWithStats(context.Background(), in, b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pals, ords, thrs := in.CacheStats()
	if ords > stats.Columns+2 {
		t.Fatalf("cache holds %d orderings for a %d-column solve — oracle candidates are leaking into the cache",
			ords, stats.Columns)
	}
	if pals > stats.Columns+2 {
		t.Fatalf("cache holds %d pal entries for a %d-column solve", pals, stats.Columns)
	}
	if thrs > 2 {
		t.Fatalf("cache holds %d threshold vectors for a fixed-threshold solve", thrs)
	}
	if stats.PrefixHits == 0 {
		t.Fatal("incremental oracle reported zero prefix-checkpoint evaluations")
	}
}
