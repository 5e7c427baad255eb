package lp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/lp"
	"auditgame/internal/sample"
	"auditgame/internal/solver"
	"auditgame/internal/workload"
)

// master rebuilds a game instance's restricted master from the
// instance's exported surface, laid out as the game package writes it:
// each entity class's best-response rows (classes in order of their
// first entity, rows in UaRow order), then its refrain row when the
// game allows no attack, and the simplex row last. Entities of one
// class share their Ua rows, so a Ua row at a generic pal vector tells
// the classes apart.
type master struct {
	in      *game.Instance
	reps    []int     // each class's first entity
	weights []float64 // each class's Σ p_e
	scale   float64   // Σ weights, by which the objective is divided
}

func newMaster(t testing.TB, in *game.Instance) *master {
	t.Helper()
	probe := make([]float64, len(in.G.Types))
	for ty := range probe {
		probe[ty] = 1 / (math.Pi + float64(ty))
	}
	mt := &master{in: in}
	classOf := make(map[string]int)
	for e := range in.G.Entities {
		key := fmt.Sprint(in.UaRow(e, probe))
		ci, ok := classOf[key]
		if !ok {
			ci = len(mt.reps)
			classOf[key] = ci
			mt.reps = append(mt.reps, e)
			mt.weights = append(mt.weights, 0)
		}
		mt.weights[ci] += in.G.Entities[e].PAttack
	}
	if len(mt.reps) != in.NumClasses() {
		t.Fatalf("%d classes by Ua rows, the instance has %d", len(mt.reps), in.NumClasses())
	}
	for _, wt := range mt.weights {
		mt.scale += wt
	}
	if mt.scale <= 0 {
		mt.scale = 1
	}
	return mt
}

// write writes the master over one pal vector per pooled ordering into
// w, column by column, and returns its column count.
func (mt *master) write(w *lp.Workspace, pals [][]float64) int {
	nQ, nC := len(pals), len(mt.reps)
	m := 1
	for _, e := range mt.reps {
		m += mt.in.NumSignatures(e)
		if mt.in.G.AllowNoAttack {
			m++
		}
	}
	ue, slack := nQ, nQ+2*nC
	n := slack + m - 1
	w.Reset(m, n)
	for qi, pal := range pals {
		col := w.Col(qi)
		r := 0
		for _, e := range mt.reps {
			for _, v := range mt.in.UaRow(e, pal) {
				if v != 0 {
					col[r] = v
				}
				r++
			}
			if mt.in.G.AllowNoAttack {
				r++
			}
		}
		col[r] = 1
	}
	r := 0
	for ci, e := range mt.reps {
		up, un := ue+2*ci, ue+2*ci+1
		cost := mt.weights[ci] / mt.scale
		w.C[up], w.C[un] = cost, -cost
		for s := 0; s < mt.in.NumSignatures(e); s++ {
			w.Col(up)[r], w.Col(un)[r], w.Col(slack + r)[r] = -1, 1, 1
			w.Crash[r] = slack + r
			r++
		}
		if mt.in.G.AllowNoAttack {
			w.Col(up)[r], w.Col(un)[r], w.Col(slack + r)[r] = 1, -1, -1
			r++
		}
	}
	w.B[r] = 1
	return n
}

// solveBoth solves the master over the pool Q at thresholds b through
// the game package and, rebuilt, through CheckPivotLockstep, and
// requires the two to agree on the objective's bits and the pivot
// count. warm is the rebuilt side's warm start and gameWarm the game
// side's. It also returns the rebuilt master's column count.
func solveBoth(t *testing.T, name string, mt *master, Q []game.Ordering, b game.Thresholds, warm []int, gameWarm *game.MasterBasis) (lp.Lockstep, *game.LPResult, int) {
	t.Helper()
	res, err := mt.in.SolveFixedWarm(Q, b, gameWarm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var w lp.Workspace
	n := mt.write(&w, mt.in.PalBatch(Q, b))
	ls, err := lp.CheckPivotLockstep(&w, lp.Options{Warm: warm})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ls.Status != lp.Optimal {
		t.Fatalf("%s: rebuilt master %v", name, ls.Status)
	}
	if obj := ls.Objective * mt.scale; math.Float64bits(obj) != math.Float64bits(res.Objective) || ls.Iterations != res.Iterations {
		t.Fatalf("%s: rebuilt master gives %.17g in %d pivots, the game's %.17g in %d", name, obj, ls.Iterations, res.Objective, res.Iterations)
	}
	ls.Basis = append([]int(nil), ls.Basis...)
	return ls, res, n
}

// replayBankPanel builds the 48-type bank-drift panel game, runs its
// column-generation solve and its warm refit after a ×1.02 drift, and
// walks both master by master in order, warm-starting each rebuilt
// master from the last as the solver does. step gets each master's
// name, rebuild, pool, thresholds and warm start, and returns the
// rebuilt master's optimal basis and column count. The refit's first
// master installs the cold solve's basis, which the drift made
// infeasible. replayBankPanel returns the number of masters walked.
func replayBankPanel(tb testing.TB, step func(name string, mt *master, Q []game.Ordering, thr game.Thresholds, warm []int) (basis []int, n int)) int {
	tb.Helper()
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
		g, _, err := workload.Scaled{Entities: 2000, AlertTypes: 48, Seed: 1, Templates: tmpl}.Build(workload.Scale{})
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	base, drifted := mk(1), mk(1.02)
	var budget float64
	for _, at := range base.Types {
		budget += at.Dist.Mean() * at.Cost
	}
	budget *= 0.1
	thr := game.Thresholds(base.ThresholdCaps())
	inBase, err := game.NewInstance(base, budget, sample.NewBank(base.Dists(), 512, 2))
	if err != nil {
		tb.Fatal(err)
	}
	inDrift, err := game.NewInstance(drifted, budget, sample.NewBank(drifted.Dists(), 512, 2))
	if err != nil {
		tb.Fatal(err)
	}
	st := solver.NewSolveState(solver.CGGSOptions{})
	pol, err := st.Solve(context.Background(), inBase, thr)
	if err != nil {
		tb.Fatal(err)
	}
	wpol, err := st.Refit(context.Background(), inDrift, thr, nil)
	if err != nil {
		tb.Fatal(err)
	}

	// The warm start of each master: the last master's basis with its
	// columns renumbered for the new pool, as MasterBasis does.
	var (
		lastQ     []game.Ordering
		lastBasis []int
		lastN     int
	)
	warmFor := func(Q []game.Ordering) []int {
		at := make(map[string]int, len(Q))
		for qi, o := range Q {
			at[o.Key()] = qi
		}
		var cols []int
		for _, j := range lastBasis {
			switch {
			case j < len(lastQ):
				if qi, ok := at[lastQ[j].Key()]; ok {
					cols = append(cols, qi)
				}
			case j < lastN:
				cols = append(cols, j-len(lastQ)+len(Q))
			}
		}
		return cols
	}
	masters := 0
	replay := func(mt *master, Q []game.Ordering, first int, what string) {
		for k := first; k <= len(Q); k++ {
			basis, n := step(fmt.Sprintf("%s, %d columns", what, k), mt, Q[:k], thr, warmFor(Q[:k]))
			lastQ, lastBasis, lastN = Q[:k], basis, n
			masters++
		}
	}
	replay(newMaster(tb, inBase), pol.Q, 1, "cold")
	replay(newMaster(tb, inDrift), wpol.Q, st.WarmStats().ColumnsReused, "refit")
	return masters
}

// TestPivotMatchesDenseOnBankPanelMasters replays the 48-type bank-drift
// panel game's column-generation solve and its warm refit master by
// master (replayBankPanel) and takes every master's pivot sequence
// through the sparse and the dense pivot at once. The refit's first
// master takes the auxiliary pivot.
func TestPivotMatchesDenseOnBankPanelMasters(t *testing.T) {
	if testing.Short() {
		t.Skip("the bank-panel replay takes a few seconds")
	}
	var (
		gameWarm                                    *game.MasterBasis
		pivots, indexed, whole, negative, auxiliary int
	)
	masters := replayBankPanel(t, func(name string, mt *master, Q []game.Ordering, thr game.Thresholds, warm []int) ([]int, int) {
		ls, res, n := solveBoth(t, name, mt, Q, thr, warm, gameWarm)
		gameWarm = res.Basis
		pivots += ls.Pivots
		indexed += ls.Indexed
		whole += ls.Whole
		negative += ls.Negative
		auxiliary += ls.Auxiliary
		return ls.Basis, n
	})
	if want := 48 + 10; masters != want {
		t.Fatalf("replayed %d masters, want the panel game's %d", masters, want)
	}
	if negative == 0 || auxiliary == 0 || indexed == 0 || whole == 0 {
		t.Fatalf("%d pivots (%d indexed, %d whole-column), %d on a negative element, %d warm starts took the auxiliary pivot: want every path",
			pivots, indexed, whole, negative, auxiliary)
	}
	t.Logf("%d masters, %d pivots (%d indexed, %d whole-column), %d on a negative element, %d warm starts took the auxiliary pivot",
		masters, pivots, indexed, whole, negative, auxiliary)
}

// BenchmarkMasterPivots solves the 58 masters of the 48-type bank panel
// (the cold solve, then the refit; replayBankPanel), each rebuilt and
// warm-started as the solver does, through Solve. ns/pivot is the time
// per pivot, install and auxiliary pivots included, and pivots the
// count per op; building the masters is outside the timed loop.
func BenchmarkMasterPivots(b *testing.B) {
	type problem struct {
		a, rhs, c   []float64
		crash, warm []int
	}
	var (
		w     lp.Workspace
		probs []problem
	)
	replayBankPanel(b, func(name string, mt *master, Q []game.Ordering, thr game.Thresholds, warm []int) ([]int, int) {
		n := mt.write(&w, mt.in.PalBatch(Q, thr))
		probs = append(probs, problem{slices.Clone(w.A), slices.Clone(w.B), slices.Clone(w.C), slices.Clone(w.Crash), warm})
		res := w.Solve(lp.Options{Warm: warm})
		if res.Status != lp.Optimal {
			b.Fatalf("%s: %v", name, res.Status)
		}
		return slices.Clone(res.Basis), n
	})
	b.ResetTimer()
	pivots := 0
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			w.Reset(len(p.rhs), len(p.c))
			copy(w.A, p.a)
			copy(w.B, p.rhs)
			copy(w.C, p.c)
			copy(w.Crash, p.crash)
			pivots += w.Solve(lp.Options{Warm: p.warm}).Iterations
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots")
}

// TestPivotMatchesDenseOnTable3LPs takes the Table III brute force's LP
// — Syn A at B = 2 over all 24 orderings — at random grid points
// through the sparse and the dense pivot at once.
func TestPivotMatchesDenseOnTable3LPs(t *testing.T) {
	g, _, err := workload.Build("syna", workload.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := game.NewInstance(g, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	mt := newMaster(t, in)
	Q := game.AllOrderings(len(g.Types))
	caps := g.ThresholdCaps()
	rng := rand.New(rand.NewSource(3))
	pivots := 0
	for trial := 0; trial < 60; trial++ {
		thr := make(game.Thresholds, len(g.Types))
		for ty, at := range g.Types {
			thr[ty] = float64(rng.Intn(int(caps[ty]/at.Cost)+1)) * at.Cost
		}
		ls, _, _ := solveBoth(t, fmt.Sprintf("b = %v", thr), mt, Q, thr, nil, nil)
		pivots += ls.Pivots
	}
	t.Logf("60 LPs, %d pivots", pivots)
}
