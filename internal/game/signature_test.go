package game

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseUa is the full-width Ua loop the indexed signature replaced,
// kept as the reference ua must match bit for bit: it walks every type
// and skips the zero probabilities.
func denseUa(s *signature, pal []float64) float64 {
	var pat float64
	for t, p := range s.probs {
		if p != 0 {
			pat += p * pal[t]
		}
	}
	return s.base + s.delta*pat
}

// denseDualTypeWeights is the full-width fold DualTypeWeights replaced.
func denseDualTypeWeights(in *Instance, res *LPResult) []float64 {
	W := make([]float64, in.nT)
	for ci := range in.classes {
		for s, sig := range in.classes[ci].sigs {
			d := res.RowDuals[ci][s]
			if d == 0 {
				continue
			}
			dd := d * sig.delta
			for t, p := range sig.probs {
				if p != 0 {
					W[t] += dd * p
				}
			}
		}
	}
	return W
}

// denseReducedCost is reducedCostFromPal over denseUa.
func denseReducedCost(in *Instance, res *LPResult, pal []float64) float64 {
	var priced float64
	for ci := range in.classes {
		for s := range in.classes[ci].sigs {
			if d := res.RowDuals[ci][s]; d != 0 {
				priced += d * denseUa(&in.classes[ci].sigs[s], pal)
			}
		}
	}
	return -(priced + res.SimplexDual)
}

// signatureDiff checks every class signature of in: nz must list the
// nonzero probs in type order, and on random pal vectors (a fifth of
// their entries zero) and random duals (a third zero), ua,
// DualTypeWeights and ReducedCosts must equal the dense loops' bits.
func signatureDiff(in *Instance, seed int64) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(seed))
	draw := func(zeroEvery int, scale float64) float64 {
		if rng.Intn(zeroEvery) == 0 {
			return 0
		}
		return scale * rng.Float64()
	}
	for ci := range in.classes {
		for s := range in.classes[ci].sigs {
			sig := &in.classes[ci].sigs[s]
			k := 0
			for t, p := range sig.probs {
				if p == 0 {
					continue
				}
				if k >= len(sig.nz) || sig.nz[k].t != t || !same(sig.nz[k].p, p) {
					return fmt.Errorf("class %d signature %d: nz = %v does not list probs %v", ci, s, sig.nz, sig.probs)
				}
				k++
			}
			if k != len(sig.nz) {
				return fmt.Errorf("class %d signature %d: nz = %v does not list probs %v", ci, s, sig.nz, sig.probs)
			}
		}
	}
	pals := make([][]float64, 16)
	for i := range pals {
		pals[i] = make([]float64, in.nT)
		for t := range pals[i] {
			pals[i][t] = draw(5, 1)
		}
	}
	for ci := range in.classes {
		for s := range in.classes[ci].sigs {
			sig := &in.classes[ci].sigs[s]
			for i, pal := range pals {
				if got, want := sig.ua(pal), denseUa(sig, pal); !same(got, want) {
					return fmt.Errorf("class %d signature %d pal %d: ua %v, dense %v", ci, s, i, got, want)
				}
			}
		}
	}
	for trial := 0; trial < 8; trial++ {
		res := &LPResult{RowDuals: make([][]float64, len(in.classes)), SimplexDual: draw(3, 10) - 5}
		for ci := range in.classes {
			res.RowDuals[ci] = make([]float64, len(in.classes[ci].sigs))
			for s := range res.RowDuals[ci] {
				res.RowDuals[ci][s] = draw(3, 2) - 1
			}
		}
		got, want := in.DualTypeWeights(res), denseDualTypeWeights(in, res)
		for t := range want {
			if !same(got[t], want[t]) {
				return fmt.Errorf("duals %d: W[%d] = %v, dense %v", trial, t, got[t], want[t])
			}
		}
		for i, rc := range in.ReducedCosts(res, pals) {
			if want := denseReducedCost(in, res, pals[i]); !same(rc, want) {
				return fmt.Errorf("duals %d pal %d: reduced cost %v, dense %v", trial, i, rc, want)
			}
		}
	}
	return nil
}

// TestSignaturesMatchDenseOnMixedAttacks covers what the registered
// workloads do not: each of their attacks raises at most one type, so
// every Pat sum has at most one term. The adversarial class games and a
// random game over six types, whose attacks raise several types at
// once, check that the indexed loops add the same terms in the same
// order.
func TestSignaturesMatchDenseOnMixedAttacks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows [][]Attack
	for e := 0; e < 8; e++ {
		var row []Attack
		for v := 0; v < 4; v++ {
			probs := make([]float64, 6)
			var sum float64
			for ty := range probs {
				if rng.Intn(5) < 3 {
					probs[ty] = rng.Float64()
					sum += probs[ty]
				}
			}
			for ty := range probs {
				probs[ty] /= 1 + sum
			}
			row = append(row, att(1+rng.Float64(), rng.Float64(), rng.Float64(), probs...))
		}
		rows = append(rows, row)
	}
	games := append(adversarialClassGames(), struct {
		name string
		g    *Game
	}{"random, several types per attack", classGame(6, rows...)})
	for _, tc := range games {
		// Some adversarial games give entities rows of different
		// lengths, which NewInstance rejects; the signatures need only
		// classify.
		in := &Instance{G: tc.g, nT: len(tc.g.Types)}
		in.classes, in.entityClass = classify(tc.g)
		if err := signatureDiff(in, 3); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
