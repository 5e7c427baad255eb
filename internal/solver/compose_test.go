package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"auditgame/internal/fault"
	"auditgame/internal/game"
	"auditgame/internal/workload"
)

// composedColumn is a column the greedy oracle emitted, with the pal
// vector its pricer composed.
type composedColumn struct {
	o   game.Ordering
	pal []float64
}

// recordingSolve runs a cold CGGS solve whose oracle records every
// column it emits, keyed by the column's Key.
func recordingSolve(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, map[string]composedColumn, error) {
	composed := map[string]composedColumn{}
	st := NewSolveState(CGGSOptions{})
	st.price = func(in *game.Instance, res *game.LPResult, b game.Thresholds, eps float64, os *oracleStats) (game.Ordering, []float64, float64, error) {
		o, pal, rc, err := greedyOrderingIncremental(in, res, b, eps, os)
		if o != nil {
			composed[o.Key()] = composedColumn{o, pal}
		}
		return o, pal, rc, err
	}
	pol, err := st.Solve(ctx, in, b)
	return pol, composed, err
}

// TestComposedColumnsMatchKernel checks the pal vectors that columns
// enter the pool with (DESIGN.md P6) against the batched kernel, bit for
// bit: every pooled column's cache entry, the initial column's composed
// by ComposePal, and every column the oracle composed, through a CGGS
// solve and a slice of an ISHM search on every registered workload. The
// kernel side is a twin instance's PalBatchNoCache, which walks each
// column afresh. In the CGGS solve, each pooled greedy column's cache
// entry must be the very vector its pricer composed, so no master walks
// it again.
func TestComposedColumnsMatchKernel(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			sc := workload.Scale{}
			if name == "scaled" {
				sc = workload.Scale{Entities: 300, AlertTypes: 12, Seed: 3}
			}
			in, caps := oracleTestInstance(t, name, sc, 256)
			twin, _ := oracleTestInstance(t, name, sc, 256)
			same := func(what string, b game.Thresholds, o game.Ordering, pal []float64) {
				want := twin.PalBatchNoCache([]game.Ordering{o}, b)[0]
				for ty := range want {
					if math.Float64bits(pal[ty]) != math.Float64bits(want[ty]) {
						t.Errorf("%s, b=%v, column %v: composed pal[%d] = %v, kernel %v", what, b, o, ty, pal[ty], want[ty])
						return
					}
				}
			}
			check := func(what string, b game.Thresholds, pol *MixedPolicy, composed map[string]composedColumn) {
				for k, pal := range in.PalBatch(pol.Q, b) {
					same(fmt.Sprintf("%s, pooled column %d", what, k), b, pol.Q[k], pal)
				}
				for _, c := range composed {
					same(what+", oracle column", b, c.o, c.pal)
				}
			}

			ctx := context.Background()
			pol, composed, err := recordingSolve(ctx, in, caps)
			if err != nil {
				t.Fatal(err)
			}
			check("CGGS", caps, pol, composed)
			for k, pal := range in.PalBatch(pol.Q[1:], caps) {
				if c := composed[pol.Q[k+1].Key()]; &c.pal[0] != &pal[0] {
					t.Errorf("CGGS: pooled column %d's cache entry is not the vector its pricer composed", k+1)
				}
			}

			// An ISHM slice: its first 24 inner solves, at 2 workers.
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			var solves atomic.Int64
			inner := func(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error) {
				if solves.Add(1) == 24 {
					cancel()
				}
				pol, composed, err := recordingSolve(ctx, in, b)
				if err == nil {
					check("ISHM", b, pol, composed)
				}
				return pol, err
			}
			opts := ISHMOptions{Epsilon: 0.25, Inner: inner, EvaluateInitial: true, Memoize: true, Workers: 2}
			if _, err := ISHM(ctx, in, opts); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatal(err)
			}
		})
	}
}

// samePolicy reports whether two solved policies agree bit for bit:
// thresholds, columns, probabilities and objective.
func samePolicy(a, b *MixedPolicy) bool {
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		len(a.Q) != len(b.Q) || len(a.Thresholds) != len(b.Thresholds) {
		return false
	}
	for i := range a.Thresholds {
		if math.Float64bits(a.Thresholds[i]) != math.Float64bits(b.Thresholds[i]) {
			return false
		}
	}
	for i := range a.Q {
		if a.Q[i].Key() != b.Q[i].Key() || math.Float64bits(a.Po[i]) != math.Float64bits(b.Po[i]) {
			return false
		}
	}
	return true
}

// TestISHMSharedInstanceAcrossWorkers runs the Table V slice at 1 and 4
// workers at once on one Syn A instance, both searches reading and
// filling its delta memo and pal cache, and checks each returns a fresh
// instance's answer bit for bit. CI runs it under -race.
func TestISHMSharedInstanceAcrossWorkers(t *testing.T) {
	for _, budget := range []float64{4, 10} {
		opts := func(workers int) ISHMOptions {
			return ISHMOptions{Epsilon: 0.25, Inner: CGGSInner, EvaluateInitial: true, Memoize: true, Workers: workers}
		}
		want, err := ISHM(context.Background(), synAInstance(t, budget), opts(1))
		if err != nil {
			t.Fatal(err)
		}
		shared := synAInstance(t, budget)
		workers := []int{1, 4}
		got := make([]*ISHMResult, len(workers))
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = ISHM(context.Background(), shared, opts(w))
			}()
		}
		wg.Wait()
		for i, w := range workers {
			if errs[i] != nil {
				t.Fatalf("B=%v, %d workers: %v", budget, w, errs[i])
			}
			if !samePolicy(got[i].Policy, want.Policy) {
				t.Errorf("B=%v, %d workers on the shared instance: loss %.17g at %v, a fresh instance gives %.17g at %v",
					budget, w, got[i].Policy.Objective, got[i].Policy.Thresholds, want.Policy.Objective, want.Policy.Thresholds)
			}
		}
	}
}

// TestPricingFaultRerunsClean fails one pricing pass of the Table V
// slice with a fault.PalWorker panic, once the instance's delta memo and
// pal cache hold entries, and checks that the typed error surfaces and
// that a rerun on the same instance returns the pinned loss, bit for
// bit the answer of an instance that never saw the fault: a failed pass
// stores nothing half-written.
func TestPricingFaultRerunsClean(t *testing.T) {
	defer fault.Disable()
	for _, c := range []struct{ budget, loss float64 }{
		{4, synATable5LossB4},
		{10, synATable5LossB10},
	} {
		opts := ISHMOptions{Epsilon: 0.25, Inner: CGGSInner, EvaluateInitial: true, Memoize: true, Workers: 2}
		want, err := ISHM(context.Background(), synAInstance(t, c.budget), opts)
		if err != nil {
			t.Fatal(err)
		}
		in := synAInstance(t, c.budget)
		fault.Enable(fault.Plan{Seed: 6, Rules: []fault.Rule{
			{Point: fault.PalWorker, Mode: fault.ModeError, Prob: 1, After: 200, MaxFires: 1},
		}})
		_, err = ISHM(context.Background(), in, opts)
		fired := fault.Snapshot()
		fault.Disable()
		var se *SolveError
		if !errors.As(err, &se) || !fault.IsInjected(err) {
			t.Fatalf("B=%v: got %v (%T), want the injected fault as a *SolveError", c.budget, err, err)
		}
		if in.PalEvals() == 0 {
			t.Fatalf("B=%v: the fault fired before any column was cached (%v)", c.budget, fired)
		}
		got, err := ISHM(context.Background(), in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Policy.Objective-c.loss) > synALossTolerance || !samePolicy(got.Policy, want.Policy) {
			t.Errorf("B=%v: rerun after the fault gives %.17g at %v, want %.17g at %v",
				c.budget, got.Policy.Objective, got.Policy.Thresholds, want.Policy.Objective, want.Policy.Thresholds)
		}
	}
}
