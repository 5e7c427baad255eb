package game

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"auditgame/internal/sample"
)

// The kernel fact behind the saturated brute-force grid (DESIGN.md P5):
// a threshold at or above the budget B never binds in Eq. 1, so two
// threshold vectors that agree on every type where either is below B
// have the same pal table bit for bit, in every kernel.

// saturationCase is one game at one budget, over a realization source.
type saturationCase struct {
	name string
	in   *Instance
	frac float64 // B as a fraction of the total expected audit cost
}

// saturationCases builds Syn A (exact enumeration) with unit and mixed
// audit costs, with and without the refrain option, and two larger
// random games whose banks span several row chunks, each at budgets from
// 0 to the game's total expected audit cost.
func saturationCases(t *testing.T) []saturationCase {
	t.Helper()
	var out []saturationCase
	add := func(name string, g *Game, src sample.Source) {
		var full float64
		for _, at := range g.Types {
			full += at.Dist.Mean() * at.Cost
		}
		for _, frac := range []float64{0, 0.05, 0.2, 0.5, 1} {
			in, err := NewInstance(g, frac*full, src)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, saturationCase{fmt.Sprintf("%s B=%.4g", name, in.Budget), in, frac})
		}
	}
	for _, v := range []struct {
		costs   []float64
		refrain bool
	}{
		{nil, false},
		{[]float64{1, 1.5, 0.7, 2}, false},
		{nil, true},
		{[]float64{0.3, 1.1, 2.5, 0.9}, true},
	} {
		g := SynA()
		for i, c := range v.costs {
			g.Types[i].Cost = c
		}
		g.AllowNoAttack = v.refrain
		src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("Syn A costs=%v refrain=%v", v.costs, v.refrain), g, src)
	}
	for _, nT := range []int{8, 12} {
		g := trieTestGame(nT, int64(nT))
		add(fmt.Sprintf("random %d types", nT), g, sample.NewBank(g.Dists(), 2500, int64(nT)))
	}
	return out
}

// drawSaturation draws a threshold vector with each coordinate below,
// at or above the budget, and a second vector that moves every
// coordinate at or above the budget to another such value.
func drawSaturation(rng *rand.Rand, in *Instance) (b, b2 Thresholds) {
	B := in.Budget
	b = make(Thresholds, in.nT)
	b2 = make(Thresholds, in.nT)
	above := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return B
		case 1:
			return B + float64(rng.Intn(4))*in.G.Types[0].Cost + rng.Float64()
		}
		return math.Max(B, 1) * 1e6
	}
	for t := range b {
		switch rng.Intn(3) {
		case 0: // below B: an integer multiple of the cost, or any value
			ct := in.G.Types[t].Cost
			v := float64(rng.Intn(4)) * ct
			if rng.Intn(2) == 0 {
				v = rng.Float64() * B
			}
			if v < B {
				b[t], b2[t] = v, v
				continue
			}
			fallthrough
		case 1:
			b[t], b2[t] = B, above()
		default:
			b[t], b2[t] = above(), above()
		}
	}
	return b, b2
}

func samePals(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	for o := range want {
		for ty := range want[o] {
			if math.Float64bits(got[o][ty]) != math.Float64bits(want[o][ty]) {
				t.Fatalf("%s: ordering %d pal[%d] = %v, want %v", label, o, ty, got[o][ty], want[o][ty])
			}
		}
	}
}

// TestSaturatedThresholdsShareBatchPals checks the fact on the trie walk
// behind PalBatchNoCache: full orderings (all of them on Syn A) and
// partial ones, at drawn threshold pairs.
func TestSaturatedThresholdsShareBatchPals(t *testing.T) {
	for ci, c := range saturationCases(t) {
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		nT := c.in.nT
		var os []Ordering
		if nT <= 4 {
			os = AllOrderings(nT)
		} else {
			for i := 0; i < 40; i++ {
				os = append(os, Ordering(rng.Perm(nT)))
			}
		}
		for i := 0; i < 10; i++ {
			os = append(os, Ordering(rng.Perm(nT)[:1+rng.Intn(nT)]))
		}
		for draw := 0; draw < 20; draw++ {
			b, b2 := drawSaturation(rng, c.in)
			samePals(t, fmt.Sprintf("%s b=%v b'=%v", c.name, b, b2),
				c.in.PalBatchNoCache(os, b2), c.in.PalBatchNoCache(os, b))
		}
	}
}

// TestSaturatedThresholdsSharePrefixPricer checks the fact on the
// incremental pricing kernel: along a random prefix, pricers at the two
// thresholds report the same prefix pal and the same candidate deltas.
// Each pricer runs on an instance of its own, built afresh per draw, so
// the kernel computes every delta and the delta memo, which keys a
// threshold at or above the budget as the budget, answers none.
func TestSaturatedThresholdsSharePrefixPricer(t *testing.T) {
	for ci, c := range saturationCases(t) {
		rng := rand.New(rand.NewSource(int64(ci) + 101))
		nT := c.in.nT
		fresh := func() *Instance {
			in, err := NewInstance(c.in.G, c.in.Budget, c.in.Src)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		for draw := 0; draw < 10; draw++ {
			b, b2 := drawSaturation(rng, c.in)
			p1, err := NewPrefixPricer(fresh(), b)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := NewPrefixPricer(fresh(), b2)
			if err != nil {
				t.Fatal(err)
			}
			walk := rng.Perm(nT)
			for step, next := range walk {
				label := fmt.Sprintf("%s b=%v b'=%v step %d", c.name, b, b2, step)
				samePals(t, label, [][]float64{p2.Pal()}, [][]float64{p1.Pal()})
				cands := walk[step:]
				d1, d2 := p1.ExtendDeltas(cands), p2.ExtendDeltas(cands)
				samePals(t, label, [][]float64{d2}, [][]float64{d1})
				p1.Advance(next, d1[0])
				p2.Advance(next, d2[0])
			}
		}
	}
}

// TestPalGridSweepSaturatedGrid checks the fact on the grid sweep the
// brute force runs: Pals(k) on the full grid equals Pals(min(k, sat)) on
// the saturated grid, sat_t = min(J_t, first k with k·C_t ≥ B), at every
// point of Syn A's grid. Budgets above a fifth of the expected audit
// cost saturate little and sweep for seconds, so they are left out.
func TestPalGridSweepSaturatedGrid(t *testing.T) {
	for _, c := range saturationCases(t) {
		in := c.in
		if in.nT != 4 || c.frac > 0.2 {
			continue // Syn A at a constrained budget only
		}
		steps := make([]int, in.nT)
		sat := make([]int, in.nT)
		for t := range steps {
			_, steps[t] = in.G.Types[t].Dist.Support()
			ct := in.G.Types[t].Cost
			for sat[t] < steps[t] && float64(sat[t])*ct < in.Budget {
				sat[t]++
			}
		}
		os := AllOrderings(in.nT)
		full, part := in.PalGridSweep(os, steps), in.PalGridSweep(os, sat)
		if full == nil || part == nil {
			t.Fatalf("%s: sweep refused the grid", c.name)
		}
		ks := make([]int, in.nT)
		rk := make([]int, in.nT)
		var rec func(t0 int)
		rec = func(t0 int) {
			if t0 == in.nT {
				samePals(t, fmt.Sprintf("%s k=%v", c.name, ks), part.Pals(rk), full.Pals(ks))
				return
			}
			for k := 0; k <= steps[t0]; k++ {
				ks[t0], rk[t0] = k, min(k, sat[t0])
				rec(t0 + 1)
			}
		}
		rec(0)
	}
}
