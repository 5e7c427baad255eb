package solver

import (
	"context"
	"math"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/workload"
)

// The paper-syna benchmark's output checks, pinned here as well so that
// a change that breaks one fails the test suite, not only the benchmark
// run. Syn A's expectations are enumerated exactly, so every value is a
// fixed number.
const (
	synATable3LossB2   = 12.245687146610166
	synATable3Explored = 7675
	synATable5LossB4   = 7.6128502040154622
	synATable5LossB10  = -3.3868379873225143
	synALossTolerance  = 1e-9
)

// synAInstance builds Syn A at budget over its exact enumeration, as
// the benchmark does.
func synAInstance(t *testing.T, budget float64) *game.Instance {
	t.Helper()
	g, _, err := workload.Build("syna", workload.Scale{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := game.NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSynATable3Pin checks the Table III brute force at B = 2: its loss
// and the number of grid points it solved.
func TestSynATable3Pin(t *testing.T) {
	res, err := BruteForce(context.Background(), synAInstance(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Policy.Objective; math.Abs(got-synATable3LossB2) > synALossTolerance {
		t.Errorf("B=2 loss %.17g, want %.17g", got, synATable3LossB2)
	}
	if res.Explored != synATable3Explored {
		t.Errorf("explored %d grid points, want %d", res.Explored, synATable3Explored)
	}
}

// TestSynATable5SlicePin checks the Table V slice — ISHM with the CGGS
// inner solver, ε = 0.25, at B = 4 and B = 10 — at 1 and 4 workers.
func TestSynATable5SlicePin(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, c := range []struct{ budget, loss float64 }{
			{4, synATable5LossB4},
			{10, synATable5LossB10},
		} {
			opts := ISHMOptions{Epsilon: 0.25, Inner: CGGSInner, EvaluateInitial: true, Memoize: true, Workers: workers}
			r, err := ISHM(context.Background(), synAInstance(t, c.budget), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Policy.Objective; math.Abs(got-c.loss) > synALossTolerance {
				t.Errorf("B=%v, %d workers: loss %.17g, want %.17g", c.budget, workers, got, c.loss)
			}
		}
	}
}
