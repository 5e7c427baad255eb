package solver

import (
	"fmt"
	"testing"

	"auditgame/internal/game"
	"auditgame/internal/workload"
)

// BenchmarkGreedyOracle times one full greedy column construction —
// the per-column cost of the CGGS pricing loop — against a fixed
// restricted master solution, for both oracle implementations across
// the |T| sweep. This is the microbenchmark behind the PR's O(|T|³)
// → O(|T|²) pricing claim: the incremental/reference ratio should
// widen roughly linearly in |T|.
func BenchmarkGreedyOracle(b *testing.B) {
	for _, nT := range []int{8, 16, 32, 48} {
		in, thr := oracleTestInstance(b, "scaled", workload.Scale{Entities: 400, AlertTypes: nT, Seed: 9}, 512)
		seedQ := []game.Ordering{BenefitOrdering(in.G)}
		res, err := in.SolveFixed(seedQ, thr)
		if err != nil {
			b.Fatal(err)
		}
		for _, oracle := range []struct {
			name  string
			price pricer
		}{
			{"incremental", NewSolveState(CGGSOptions{}).price},
			{"reference", greedyOrderingReference},
		} {
			b.Run(fmt.Sprintf("T%d/%s", nT, oracle.name), func(b *testing.B) {
				var st oracleStats
				for i := 0; i < b.N; i++ {
					if _, _, _, err := oracle.price(in, res, thr, 1e-7, &st); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.pruned)/float64(b.N), "pruned/col")
			})
		}
	}
}
