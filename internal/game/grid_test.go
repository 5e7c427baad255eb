package game

import (
	"math"
	"testing"

	"auditgame/internal/sample"
)

// TestPalGridSweepMatchesBatch pins the grid-swept table against the
// fixed-threshold batch kernel: at every grid point, every ordering's
// pal vector must match PalBatchNoCache bit for bit.
func TestPalGridSweepMatchesBatch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := trieTestGame(4, seed)
		in := mustInstance(t, g, 6)
		os := AllOrderings(4)
		steps := []int{3, 2, 3, 2}
		pg := in.PalGridSweep(os, steps)
		if pg == nil {
			t.Fatalf("seed %d: sweep refused a %v grid", seed, steps)
		}
		ks := make([]int, 4)
		b := make(Thresholds, 4)
		var rec func(t0 int)
		rec = func(t0 int) {
			if t0 == 4 {
				for t2 := range b {
					b[t2] = float64(ks[t2]) * in.G.Types[t2].Cost
				}
				want := in.PalBatchNoCache(os, b)
				got := pg.Pals(ks)
				for o := range os {
					for ty := 0; ty < 4; ty++ {
						if math.Float64bits(got[o][ty]) != math.Float64bits(want[o][ty]) {
							t.Fatalf("seed %d ks=%v ordering %v: pal[%d] = %v, batch kernel says %v",
								seed, ks, os[o], ty, got[o][ty], want[o][ty])
						}
					}
				}
				return
			}
			for k := 0; k <= steps[t0]; k++ {
				ks[t0] = k
				rec(t0 + 1)
			}
		}
		rec(0)
	}
}

// TestPalGridSweepRefusals covers the fallback conditions: a steps
// slice without one range per type, oversized tables, partial
// orderings, and duplicate orderings all return nil rather than a wrong
// or gigantic table (or a panic).
func TestPalGridSweepRefusals(t *testing.T) {
	g := trieTestGame(4, 1)
	in := mustInstance(t, g, 6)
	for _, steps := range [][]int{{1, 1, 1}, {1, 1, 1, 1, 1}, nil} {
		if pg := in.PalGridSweep(AllOrderings(4), steps); pg != nil {
			t.Fatalf("sweep accepted %d step ranges for 4 types", len(steps))
		}
	}
	if pg := in.PalGridSweep(AllOrderings(4), []int{9999, 9999, 9999, 9999}); pg != nil {
		t.Fatal("sweep accepted a grid far past the memory cap")
	}
	if pg := in.PalGridSweep([]Ordering{{0, 1}}, []int{1, 1, 1, 1}); pg != nil {
		t.Fatal("sweep accepted a partial ordering")
	}
	if pg := in.PalGridSweep([]Ordering{{0, 1, 2, 3}, {0, 1, 2, 3}}, []int{1, 1, 1, 1}); pg != nil {
		t.Fatal("sweep accepted duplicate orderings")
	}
}

func mustInstance(t *testing.T, g *Game, budget float64) *Instance {
	t.Helper()
	in, err := NewInstance(g, budget, sample.NewBank(g.Dists(), 500, 42))
	if err != nil {
		t.Fatal(err)
	}
	return in
}
