package sim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSimEvents measures kernel event throughput for a full
// closed-loop run at GOMAXPROCS 1 and at the machine's default — the
// determinism contract says the curves are identical, so the pair also
// shows what the solver's internal parallelism buys the loop.
func BenchmarkSimEvents(b *testing.B) {
	counts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		counts = append(counts, max)
	}
	for _, procs := range counts {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			events := 0
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), "stepchange", Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.StopTimer()
			b.ReportMetric(float64(events)/time.Since(start).Seconds(), "events/s")
		})
	}
}

// BenchmarkStepChangeStrategies runs the acceptance scenario once per
// strategy and reports the final cumulative regret and refit count as
// benchmark metrics — `make bench` carries them into the BENCH
// artifact, so the drift-beats-static margin is recorded per PR.
func BenchmarkStepChangeStrategies(b *testing.B) {
	for _, strat := range Strategies() {
		b.Run(string(strat), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Run(context.Background(), "stepchange", Options{Seed: 1, Strategy: strat})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CumRegret, "cum_regret")
			b.ReportMetric(float64(res.RefitsInstalled), "refits")
			b.ReportMetric(res.EmpiricalDetection, "detection")
		})
	}
}

// BenchmarkSimSeasonal is one pass of perfbench's sim-seasonal
// workload per op: the seasonal scenario over 360 periods at seeds 1–8,
// one sub-benchmark per refit strategy. Run it with -benchmem; the
// static pass is the event dispatch, attacker and true-model
// accounting with no refit in the way.
func BenchmarkSimSeasonal(b *testing.B) {
	for _, strat := range Strategies() {
		b.Run(string(strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= 8; seed++ {
					if _, err := Run(context.Background(), "seasonal", Options{Horizon: 360, Seed: seed, Strategy: strat}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
