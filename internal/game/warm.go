package game

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// StructuralFingerprint hashes everything about the instance that the
// restricted master's shape and coefficients depend on except the
// per-type count model: budget, type count and costs, AllowNoAttack,
// and the full entity-class structure (weights and attack signatures).
// Two instances with equal fingerprints build masters with identical
// rows and identically-keyed columns, which is the precondition for
// reusing a MasterBasis and a column pool across a refit; a count-model
// change alone (the refit case) leaves the fingerprint unchanged, while
// budget, type-set, or entity-class changes do not.
func (in *Instance) StructuralFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	wf(in.Budget)
	w64(uint64(in.nT))
	for _, t := range in.G.Types {
		wf(t.Cost)
	}
	if in.G.AllowNoAttack {
		w64(1)
	} else {
		w64(0)
	}
	w64(uint64(len(in.classes)))
	for _, cl := range in.classes {
		wf(cl.weight)
		w64(uint64(len(cl.sigs)))
		for _, sig := range cl.sigs {
			wf(sig.base)
			wf(sig.delta)
			for _, p := range sig.probs {
				wf(p)
			}
		}
	}
	return h.Sum64()
}

// DualPricingScale returns Σ_{c,s} |RowDuals[c][s] · delta_{c,s}|, the
// Lipschitz constant of a column's reduced cost with respect to uniform
// detection-probability perturbation under the solve's duals: every
// pal value moving by at most ε moves any column's reduced cost by at
// most ε times this scale. Multiplied by a bound on the pal shift (the
// summed per-type total-variation distances of a model refit), it
// screens which pooled columns could possibly have priced negative
// under the new model.
func (in *Instance) DualPricingScale(res *LPResult) float64 {
	var sum float64
	for ci := range in.classes {
		for s, sig := range in.classes[ci].sigs {
			sum += math.Abs(res.RowDuals[ci][s] * sig.delta)
		}
	}
	return sum
}

// MasterBasis is the optimal basis of a restricted master LP in
// game-logical coordinates: ordering columns are identified by their
// content, u_c columns by entity-class index, and slack columns by
// constraint row. That indirection is what makes the basis portable
// across solves — the column pool grows between pricing rounds and a
// refit rebuilds the whole LP with perturbed coefficients, but an
// ordering's content and a class's position depend only on the game's
// attack structure, which both transformations preserve.
type MasterBasis struct {
	numRows int
	rows    []masterBasisEntry
}

type masterBasisKind uint8

const (
	mbArtificial masterBasisKind = iota
	mbOrdering
	mbUe
	mbSlack
)

type masterBasisEntry struct {
	kind masterBasisKind
	o    Ordering // the basic ordering, for mbOrdering
	idx  int      // class index (mbUe) or constraint row (mbSlack)
	neg  bool     // u_c⁻ rather than u_c⁺
}

// NumRows reports the constraint-row count the basis was extracted
// from; a master with a different row count (different class structure)
// cannot use it.
func (mb *MasterBasis) NumRows() int {
	if mb == nil {
		return 0
	}
	return mb.numRows
}

// newMasterBasis reads an optimal basis (the column basic in each row
// of a master laid out by l over the pool Q) into game-logical
// coordinates. It keeps the basic orderings themselves: their keys are
// formatted only if the basis is used as a warm start.
func newMasterBasis(cols []int, Q []Ordering, l masterLayout) *MasterBasis {
	mb := &MasterBasis{numRows: l.m, rows: make([]masterBasisEntry, len(cols))}
	for i, j := range cols {
		switch {
		case j < l.nQ:
			mb.rows[i] = masterBasisEntry{kind: mbOrdering, o: Q[j]}
		case j < l.slack:
			mb.rows[i] = masterBasisEntry{kind: mbUe, idx: (j - l.ue) / 2, neg: (j-l.ue)%2 == 1}
		case j < l.n:
			mb.rows[i] = masterBasisEntry{kind: mbSlack, idx: j - l.slack}
		}
	}
	return mb
}

// columns translates the basis into warm-start columns for a master
// over the pool Q laid out by l, in row order. A basis from a master
// with another row count is ignored altogether; an entry whose ordering
// has left the pool, whose class or row is out of range, or that was
// artificial is dropped, and its row keeps its crash start.
func (mb *MasterBasis) columns(Q []Ordering, l masterLayout) []int {
	if mb == nil || mb.numRows != l.m {
		return nil
	}
	nClasses := (l.slack - l.ue) / 2
	at := make(map[string]int, len(Q))
	for qi, o := range Q {
		at[o.Key()] = qi
	}
	cols := make([]int, 0, l.m)
	for _, e := range mb.rows {
		switch e.kind {
		case mbOrdering:
			if qi, ok := at[e.o.Key()]; ok {
				cols = append(cols, qi)
			}
		case mbUe:
			if e.idx >= 0 && e.idx < nClasses {
				j := l.ue + 2*e.idx
				if e.neg {
					j++
				}
				cols = append(cols, j)
			}
		case mbSlack:
			// The last row, Σ p_o = 1, is an equality without a slack.
			if e.idx >= 0 && e.idx < l.m-1 {
				cols = append(cols, l.slack+e.idx)
			}
		}
	}
	return cols
}
