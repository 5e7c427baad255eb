package game

import (
	"math"
	"math/rand"
	"testing"

	"auditgame/internal/sample"
)

// TestPrefixPricerMatchesKernel pins the incremental pricer against the
// batched kernel bit for bit: at every prefix length, every candidate's
// ExtendDeltas value must equal the appended-position pal entry the
// kernel computes for the extended ordering, and the pricer's prefix pal
// must equal the kernel's pal of the prefix.
func TestPrefixPricerMatchesKernel(t *testing.T) {
	for _, tc := range []struct {
		nT, bank int
		seed     int64
	}{
		{4, 100, 1},
		{8, 600, 2},
		{12, 1500, 3}, // 2 chunks
		{16, 3000, 4}, // 3 chunks
	} {
		g := trieTestGame(tc.nT, tc.seed)
		src := sample.NewBank(g.Dists(), tc.bank, tc.seed)
		in, err := NewInstance(g, float64(tc.nT)*2.5, src)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed * 131))
		b := make(Thresholds, tc.nT)
		for i := range b {
			b[i] = float64(rng.Intn(10))
		}
		pp, err := NewPrefixPricer(in, b)
		if err != nil {
			t.Fatal(err)
		}
		walk := Ordering(rng.Perm(tc.nT))
		for step := 0; step < tc.nT; step++ {
			prefix := walk[:step]
			// Prefix pal: checkpointed entries vs a full kernel walk.
			want := in.PalBatchNoCache([]Ordering{prefix.Clone()}, b)[0]
			for ty := 0; ty < tc.nT; ty++ {
				if math.Float64bits(pp.Pal()[ty]) != math.Float64bits(want[ty]) {
					t.Fatalf("nT=%d step=%d: prefix pal[%d] = %v (pricer) vs %v (kernel)",
						tc.nT, step, ty, pp.Pal()[ty], want[ty])
				}
			}
			// Candidate deltas: one appended-position evaluation each vs
			// the kernel's full walk of prefix+t.
			inPrefix := make([]bool, tc.nT)
			for _, ty := range prefix {
				inPrefix[ty] = true
			}
			var cands []int
			var ext []Ordering
			for ty := 0; ty < tc.nT; ty++ {
				if !inPrefix[ty] {
					cands = append(cands, ty)
					ext = append(ext, append(prefix.Clone(), ty))
				}
			}
			deltas := pp.ExtendDeltas(cands)
			pals := in.PalBatchNoCache(ext, b)
			for j, ty := range cands {
				if math.Float64bits(deltas[j]) != math.Float64bits(pals[j][ty]) {
					t.Fatalf("nT=%d step=%d cand=%d: delta %v (pricer) vs %v (kernel), prefix %v",
						tc.nT, step, ty, deltas[j], pals[j][ty], prefix)
				}
			}
			pp.Advance(walk[step], deltas[indexOf(cands, walk[step])])
		}
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TestPalBatchNoCacheBypassesCache checks the no-cache path reads
// through existing entries (same bits) without inserting new ones — the
// property that keeps the pal cache bounded while the oracle churns
// through O(|T|²) throwaway partial orderings per column.
func TestPalBatchNoCacheBypassesCache(t *testing.T) {
	g := trieTestGame(8, 9)
	src := sample.NewBank(g.Dists(), 600, 9)
	in, err := NewInstance(g, 20, src)
	if err != nil {
		t.Fatal(err)
	}
	b := Thresholds{3, 4, 2, 5, 1, 4, 3, 2}
	rng := rand.New(rand.NewSource(7))
	full := Ordering(rng.Perm(8))
	cached := in.PalBatch([]Ordering{full}, b) // populate one entry
	pals0, ords0, thrs0 := in.CacheStats()

	var os []Ordering
	os = append(os, full.Clone())
	for l := 1; l < 8; l++ {
		os = append(os, full[:l].Clone())
	}
	got := in.PalBatchNoCache(os, b)
	for ty := range cached[0] {
		if math.Float64bits(got[0][ty]) != math.Float64bits(cached[0][ty]) {
			t.Fatalf("no-cache read-through diverged at type %d: %v vs %v", ty, got[0][ty], cached[0][ty])
		}
	}
	pals1, ords1, thrs1 := in.CacheStats()
	if pals1 != pals0 || ords1 != ords0 || thrs1 != thrs0 {
		t.Fatalf("PalBatchNoCache grew the cache: pals %d→%d, orderings %d→%d, thresholds %d→%d",
			pals0, pals1, ords0, ords1, thrs0, thrs1)
	}
}

// TestDeltaMemoBounded fills the delta memo past its cap and checks it
// is cleared rather than grown, and that it serves what it holds.
func TestDeltaMemoBounded(t *testing.T) {
	var dm deltaMemo
	var key deltaKey
	for i := range key {
		key[i].t = -1
	}
	cands := make([]int, 1024)
	bits := make([]uint64, len(cands))
	deltas := make([]float64, len(cands))
	miss := make([]int, len(cands))
	for j := range cands {
		cands[j], miss[j] = j, j
	}
	for round := 0; round < deltaMemoMax/len(cands)+3; round++ {
		for j := range bits {
			bits[j] = uint64(round)
			deltas[j] = float64(round*len(cands) + j)
		}
		dm.store(key, 0, cands, bits, deltas, miss)
		if n := dm.size(); n > deltaMemoMax {
			t.Fatalf("round %d: memo holds %d deltas, cap %d", round, n, deltaMemoMax)
		}
		got := make([]float64, len(cands))
		if left := dm.lookup(key, 0, cands, bits, got, nil); len(left) != 0 {
			t.Fatalf("round %d: %d deltas just stored missed", round, len(left))
		}
		for j := range got {
			if got[j] != deltas[j] {
				t.Fatalf("round %d: delta %d reads %v, stored %v", round, j, got[j], deltas[j])
			}
		}
	}
}
