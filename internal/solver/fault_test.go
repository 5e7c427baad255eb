package solver

import (
	"context"
	"errors"
	"math"
	"testing"

	"auditgame/internal/fault"
	"auditgame/internal/game"
	"auditgame/internal/sample"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// TestPivotFaultContained injects a fault into the simplex pivot loop — a
// panic-only point with no error return — and checks it surfaces as a
// typed *SolveError instead of killing the process.
func TestPivotFaultContained(t *testing.T) {
	fault.Enable(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Point: fault.LPPivot, Mode: fault.ModeError, Prob: 1, MaxFires: 1},
	}})
	defer fault.Disable()

	st := NewSolveState(CGGSOptions{})
	_, err := st.Solve(context.Background(), instanceOf(t, testGame(), 2), game.Thresholds{2, 2, 2})
	if err == nil {
		t.Fatal("injected pivot fault did not surface")
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error not a *SolveError: %T %v", err, err)
	}
	if !fault.IsInjected(err) {
		t.Fatalf("injected fault not recognized through the wrap: %v", err)
	}
	if se.Kind != FailTransient {
		t.Fatalf("injected fault classified %v, want %v", se.Kind, FailTransient)
	}
}

// TestPalWorkerPanicContained fires the pal-kernel fault point, which
// panics inside worker goroutines (or the serial loop); the panic must be
// re-raised on the solving goroutine and converted to a *SolveError there.
func TestPalWorkerPanicContained(t *testing.T) {
	fault.Enable(fault.Plan{Seed: 2, Rules: []fault.Rule{
		{Point: fault.PalWorker, Mode: fault.ModeError, Prob: 1, MaxFires: 1},
	}})
	defer fault.Disable()

	st := NewSolveState(CGGSOptions{})
	_, err := st.Solve(context.Background(), instanceOf(t, testGame(), 2), game.Thresholds{2, 2, 2})
	if err == nil {
		t.Fatal("injected pal fault did not surface")
	}
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error not a *SolveError: %T %v", err, err)
	}
	if !fault.IsInjected(err) {
		t.Fatalf("injected fault not recognized through the wrap: %v", err)
	}
}

// TestPalKernelPanicsContainedInParallel fires the PalWorker fault point
// inside each pool-backed kernel on its parallel path — 4 workers on the
// enumerated Syn A instance (4,851 realization rows), far above the
// pool's serial cutoff — and checks the panic comes back to the calling
// goroutine, where the entry guard turns it into a typed *SolveError.
func TestPalKernelPanicsContainedInParallel(t *testing.T) {
	synA := func() *game.Instance {
		g := game.SynA()
		src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
		if err != nil {
			t.Fatal(err)
		}
		in, err := game.NewInstance(g, 10, src)
		if err != nil {
			t.Fatal(err)
		}
		in.Workers = 4
		return in
	}
	all := game.AllOrderings(4)
	b := game.Thresholds{3, 3, 3, 3}
	kernels := []struct {
		name string
		run  func(in *game.Instance)
	}{
		{"PalBatch", func(in *game.Instance) { in.PalBatch(all, b) }},
		{"PalGridSweep", func(in *game.Instance) {
			if in.PalGridSweep(all, []int{2, 2, 2, 2}) == nil {
				t.Error("grid sweep refused a 3^4 grid")
			}
		}},
		{"ExtendDeltas", func(in *game.Instance) {
			pp, err := game.NewPrefixPricer(in, b)
			if err != nil {
				t.Fatal(err)
			}
			pp.ExtendDeltas([]int{0, 1, 2, 3})
		}},
	}
	defer fault.Disable()
	for _, k := range kernels {
		in := synA()
		// Enable replaces the plan and resets its counters, so each
		// kernel's first unit fires.
		fault.Enable(fault.Plan{Seed: 4, Rules: []fault.Rule{
			{Point: fault.PalWorker, Mode: fault.ModeError, Prob: 1, MaxFires: 1},
		}})
		err := func() (err error) {
			defer contain("kernel", &err)
			k.run(in)
			return nil
		}()
		var se *SolveError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error not a *SolveError: %T %v", k.name, err, err)
		}
		if !fault.IsInjected(err) {
			t.Fatalf("%s: injected fault not recognized through the wrap: %v", k.name, err)
		}
	}
}

// TestRuntimePanicClassifiedAsPanic: a genuine runtime panic (not an
// injected error value) must classify FailPanic and carry a stack.
func TestRuntimePanicClassifiedAsPanic(t *testing.T) {
	boom := func(ctx context.Context, in *game.Instance, b game.Thresholds) (*MixedPolicy, error) {
		var s []int
		_ = s[3] // index out of range: runtime.Error
		return nil, nil
	}
	_, err := ISHM(context.Background(), instanceOf(t, testGame(), 2), ISHMOptions{
		Epsilon: 0.5, Inner: boom, EvaluateInitial: true,
	})
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("error not a *SolveError: %T %v", err, err)
	}
	if se.Kind != FailPanic {
		t.Fatalf("runtime panic classified %v, want %v", se.Kind, FailPanic)
	}
	if len(se.Stack) == 0 {
		t.Fatal("panic SolveError carries no stack")
	}
}

// TestWarmStatePoisoningGuard: a fault mid-warm-refit must invalidate the
// persisted warm state, so the next refit runs cold and reproduces the
// fault-free cold solve exactly — a failed warm attempt can cost time,
// never correctness.
func TestWarmStatePoisoningGuard(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	opts := CGGSOptions{ExhaustiveOracle: true}

	st := NewSolveState(opts)
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}

	// Fail the warm refit at its first pricing round.
	fault.Enable(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Point: fault.SolverPricingRound, Mode: fault.ModeError, Prob: 1, MaxFires: 1},
	}})
	_, err := st.Refit(ctx, instanceOf(t, driftedGame(), 2), b, nil)
	fault.Disable()
	if err == nil {
		t.Fatal("injected refit fault did not surface")
	}

	// The next refit of a compatible instance must NOT run warm.
	refitPol, err := st.Refit(ctx, instanceOf(t, driftedGame(), 2), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("warm state survived a failed refit")
	}

	// And it must agree with a from-scratch cold solve to the bit.
	cold, err := CGGS(ctx, instanceOf(t, driftedGame(), 2), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(refitPol.Objective - cold.Objective); d > 1e-9 {
		t.Fatalf("post-fault cold refit loss %.12f != fresh cold loss %.12f (|Δ|=%g)",
			refitPol.Objective, cold.Objective, d)
	}
}

// TestCancellationPoisonsWarmState: conservative invalidation includes
// cancellation — a cancelled warm refit leaves st cold for the next solve.
func TestCancellationPoisonsWarmState(t *testing.T) {
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(ctx, instanceOf(t, testGame(), 2), b); err != nil {
		t.Fatal(err)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err := st.Refit(cctx, instanceOf(t, driftedGame(), 2), b, nil)
	if err == nil {
		t.Fatal("cancelled refit returned no error")
	}
	var se *SolveError
	if !errors.As(err, &se) || se.Kind != FailCancelled {
		t.Fatalf("cancelled refit error %v, want *SolveError{FailCancelled}", err)
	}

	if _, err := st.Refit(ctx, instanceOf(t, driftedGame(), 2), b, nil); err != nil {
		t.Fatal(err)
	}
	if st.WarmStats().Warm {
		t.Fatal("warm state survived a cancelled refit")
	}
}

// TestFaultDisabledLeavesResultsUntouched: with no plan enabled the
// injection points must be inert — same objective as always.
func TestFaultDisabledLeavesResultsUntouched(t *testing.T) {
	if fault.Enabled() {
		t.Fatal("fault injection unexpectedly enabled at test start")
	}
	ctx := context.Background()
	b := game.Thresholds{2, 2, 2}
	a, err := CGGS(ctx, instanceOf(t, testGame(), 2), b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bpol, err := CGGS(ctx, instanceOf(t, testGame(), 2), b, CGGSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != bpol.Objective {
		t.Fatalf("determinism broken: %v != %v", a.Objective, bpol.Objective)
	}
}

// TestFailedSolveRecordsItsOwnStats stops a column-generation solve at
// the start of its (k+1)-th pricing round and checks that Stats and
// WarmStats describe that failed solve — k masters and their pivots, as
// the traced clean solve's first k master spans count them — and not
// the successful solve before it.
func TestFailedSolveRecordsItsOwnStats(t *testing.T) {
	in, b := oracleTestInstance(t, "scaled", workload.Scale{Entities: 200, AlertTypes: 8, Seed: 11}, 256)
	tr := telemetry.NewTrace()
	st := NewSolveState(CGGSOptions{})
	if _, err := st.Solve(telemetry.WithTrace(context.Background(), tr), in, b); err != nil {
		t.Fatal(err)
	}
	clean := st.Stats()
	var masterPivots []int
	for _, sp := range tr.Data().Spans {
		if sp.Name == "cggs.master" {
			masterPivots = append(masterPivots, int(sp.Value))
		}
	}
	const k = 3
	if clean.MasterSolves <= k || len(masterPivots) != clean.MasterSolves {
		t.Fatalf("clean solve took %d masters (%d traced); the test needs more than %d",
			clean.MasterSolves, len(masterPivots), k)
	}
	var want int
	for _, p := range masterPivots[:k] {
		want += p
	}

	fault.Enable(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Point: fault.SolverPricingRound, Mode: fault.ModeError, Prob: 1, After: k, MaxFires: 1},
	}})
	defer fault.Disable()
	if _, err := st.Solve(context.Background(), in, b); !fault.IsInjected(err) {
		t.Fatalf("solve returned %v, want the injected fault", err)
	}
	got := st.Stats()
	if got.MasterSolves != k || got.Pivots != want {
		t.Fatalf("failed solve reports %d masters and %d pivots, want %d and %d (clean solve: %d and %d)",
			got.MasterSolves, got.Pivots, k, want, clean.MasterSolves, clean.Pivots)
	}
	if ws := st.WarmStats(); ws.PricingRounds != k || ws.Warm {
		t.Fatalf("failed cold solve reports %+v, want cold with %d pricing rounds", ws, k)
	}
}
