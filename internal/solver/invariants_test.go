package solver

import (
	"context"
	"math"
	"sync"
	"testing"

	"auditgame/internal/game"
)

// TestSynAWholeSolveInvariants checks invariants of the paper's model on
// whole solves over Syn A, beyond the kernel properties:
//   - the brute-force optimum's loss is non-increasing in the budget B;
//   - ISHM, with the CGGS or the exact inner solver (ε = 0.25), is a
//     heuristic over the same thresholds, so its loss is never below the
//     optimum's;
//   - at every threshold vector ISHM+CGGS visits at B = 4, CGGS's
//     restricted master is never below the exact LP over all orderings.
func TestSynAWholeSolveInvariants(t *testing.T) {
	ctx := context.Background()
	// The optimum per budget, rounded, as measured when this test was
	// written; the test asserts the ordering, these only label it.
	optimum := []float64{18.9, 14.593, 12.246, 9.898, 7.613, 5.358, 3.122}
	prev := math.Inf(1)
	for budget := range optimum {
		B := float64(budget)
		bf, err := BruteForce(ctx, synAInstance(t, B))
		if err != nil {
			t.Fatal(err)
		}
		opt := bf.Policy.Objective
		if math.Abs(opt-optimum[budget]) > 1e-3 {
			t.Errorf("B=%v: optimum %.6f, measured %.3f", B, opt, optimum[budget])
		}
		if opt > prev {
			t.Errorf("B=%v: optimum %.9f above B=%v's %.9f", B, opt, B-1, prev)
		}
		prev = opt
		for _, inner := range []struct {
			name string
			fn   Inner
		}{{"CGGS", CGGSInner}, {"Exact", ExactInner}} {
			r, err := ISHM(ctx, synAInstance(t, B), ISHMOptions{Epsilon: 0.25, Inner: inner.fn, EvaluateInitial: true, Memoize: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Policy.Objective; got < opt-1e-9 {
				t.Errorf("B=%v: ISHM+%s loss %.9f below the optimum %.9f", B, inner.name, got, opt)
			}
		}
	}

	in := synAInstance(t, 4)
	var mu sync.Mutex
	var visited []game.Thresholds
	inner := func(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error) {
		mu.Lock()
		visited = append(visited, b.Clone())
		mu.Unlock()
		return CGGSInner(ctx, in, b)
	}
	if _, err := ISHM(ctx, in, ISHMOptions{Epsilon: 0.25, Inner: inner, EvaluateInitial: true, Memoize: true}); err != nil {
		t.Fatal(err)
	}
	for _, b := range visited {
		cg, err := CGGS(ctx, in, b, CGGSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Exact(ctx, in, b)
		if err != nil {
			t.Fatal(err)
		}
		if cg.Objective < ex.Objective-1e-9 {
			t.Errorf("B=4, b=%v: CGGS loss %.12f below the exact LP's %.12f", b, cg.Objective, ex.Objective)
		}
	}
	if len(visited) == 0 {
		t.Fatal("ISHM visited no threshold vector")
	}
}
