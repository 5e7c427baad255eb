package game

import (
	"fmt"
	"math"
)

// PrefixPricer is the incremental pricing kernel behind the greedy CGGS
// oracle. The oracle grows one column a type at a time, so every
// candidate extension shares its entire prefix with the current partial
// ordering; re-walking that prefix against every realization row for
// every candidate is what made pricing one column cost ≈|T|³ row-steps.
//
// The pricer instead checkpoints the kernel state of the fixed prefix:
// Eq. 1's budget fold is order-independent in what it consumes — each
// prefix member takes min(z_t·C_t, b_t) regardless of position — so one
// number per realization row (the budget spent by the prefix) is the
// complete kernel state. Extending by candidate type t then evaluates
// only the appended position per row: O(rows) per candidate, O(|T|·rows)
// per greedy step, O(|T|²·rows) per column.
//
// Bitwise contract: ExtendDelta's result equals, bit for bit, the pal
// entry the batched kernel would compute for pal(prefix+t)[t] — the
// spent fold performs the same additions in the same (prefix) order as
// the full walk, rows chunk exactly like the parallel engine
// (palChunkRows boundaries, chunk-index merge), and whenever the full
// walk's early-exit would have skipped the appended position, the
// checkpointed remainder is below the candidate's cost and contributes
// the same exact zero. A PrefixPricer is not safe for concurrent use.
type PrefixPricer struct {
	in *Instance
	b  Thresholds

	// Per-type constants, hoisted once per (instance, threshold vector):
	// audit cost C_t, audit cap ⌊b_t/C_t⌋, and the threshold itself.
	cost []float64
	capn []float64
	bthr []float64

	prefix   Ordering
	inPrefix []bool
	// pal is the prefix's detection-probability vector: entry t is the
	// checkpointed ExtendDelta of t at the step it was appended, zero for
	// types outside the prefix — bitwise-identical to the batched
	// kernel's pal(prefix) (absent types never audit).
	pal []float64
	// spent[zi] is realization row zi's budget consumed by the prefix.
	spent []float64
	// chunkMaxRem[c] is the largest remaining budget over chunk c's rows;
	// once it drops below a candidate's cost the whole chunk contributes
	// exactly zero for that candidate and is skipped.
	chunkMaxRem []float64
}

// NewPrefixPricer checkpoints the empty prefix of (in, b).
func NewPrefixPricer(in *Instance, b Thresholds) (*PrefixPricer, error) {
	nT := in.nT
	if len(b) != nT {
		return nil, fmt.Errorf("game: thresholds have %d entries, want |T| = %d", len(b), nT)
	}
	nRows := len(in.ws)
	nChunks := (nRows + palChunkRows - 1) / palChunkRows
	pp := &PrefixPricer{
		in:          in,
		b:           b.Clone(),
		cost:        make([]float64, nT),
		capn:        make([]float64, nT),
		bthr:        make([]float64, nT),
		prefix:      make(Ordering, 0, nT),
		inPrefix:    make([]bool, nT),
		pal:         make([]float64, nT),
		spent:       make([]float64, nRows),
		chunkMaxRem: make([]float64, nChunks),
	}
	for t := 0; t < nT; t++ {
		pp.cost[t] = in.G.Types[t].Cost
		pp.capn[t] = math.Floor(b[t] / pp.cost[t])
		pp.bthr[t] = b[t]
	}
	for c := range pp.chunkMaxRem {
		pp.chunkMaxRem[c] = in.Budget
	}
	return pp, nil
}

// Prefix returns the current partial ordering. The slice is the pricer's
// own state; callers must clone before retaining or mutating it.
func (pp *PrefixPricer) Prefix() Ordering { return pp.prefix }

// Pal returns the prefix's pal vector (shared state, do not mutate).
func (pp *PrefixPricer) Pal() []float64 { return pp.pal }

// Len returns the prefix length.
func (pp *PrefixPricer) Len() int { return len(pp.prefix) }

// ExtendDeltas evaluates Δpal_t — the appended-position detection
// probability of each candidate type, i.e. pal(prefix+t)[t] — for every
// candidate, in one chunked pass over the checkpointed rows. Candidates
// already in the prefix are invalid. The evaluation parallelizes over
// (chunk × candidate) cells and merges in chunk-index order, so results
// are bitwise-identical at every worker count.
func (pp *PrefixPricer) ExtendDeltas(cands []int) []float64 {
	for _, t := range cands {
		if t < 0 || t >= pp.in.nT || pp.inPrefix[t] {
			panic(fmt.Sprintf("game: ExtendDeltas candidate %d invalid for prefix %v", t, pp.prefix))
		}
	}
	in := pp.in
	nRows := len(in.ws)
	nChunks := (nRows + palChunkRows - 1) / palChunkRows
	nc := len(cands)
	partials := make([]float64, nChunks*nc) // [chunk][candidate]
	in.runUnits(nChunks*nc, nRows*nc, 0, func(unit int, _ *trieScratch) {
		c, j := unit/nc, unit%nc
		t := cands[j]
		if pp.chunkMaxRem[c] < pp.cost[t] {
			return // every row's remainder is below one audit: exact zero
		}
		lo := c * palChunkRows
		partials[unit] = pp.extendChunk(lo, min(lo+palChunkRows, nRows), t)
	})

	deltas := make([]float64, nc)
	for c := 0; c < nChunks; c++ {
		for j, v := range partials[c*nc : (c+1)*nc] {
			deltas[j] += v
		}
	}
	return deltas
}

// extendChunk is ExtendDeltas' inner loop: the appended position of
// candidate t over rows [lo, hi), against the checkpointed spent values —
// the same operations the trie walk performs at that position.
func (pp *PrefixPricer) extendChunk(lo, hi int, t int) float64 {
	in := pp.in
	nRows := len(in.ws)
	budget := in.Budget
	ws := in.ws[lo:hi]
	spent := pp.spent[lo:hi]
	zeff := in.zeffT[t*nRows+lo : t*nRows+hi]
	recip := in.zrecipT[t*nRows+lo : t*nRows+hi]
	ct := pp.cost[t]
	capT := pp.capn[t]
	var acc float64
	for zi, w := range ws {
		rem := budget - spent[zi]
		if rem < ct {
			continue // avail rounds to zero; the full walk adds nothing
		}
		var nt float64
		if ct == 1 {
			nt = math.Floor(rem)
		} else {
			nt = math.Floor(rem / ct)
		}
		if capT < nt {
			nt = capT
		}
		if z := zeff[zi]; z < nt {
			nt = z
		}
		if nt > 0 {
			acc += w * nt * recip[zi]
		}
	}
	return acc
}

// Advance appends type t to the prefix, folding its budget consumption
// into every row's checkpoint — the same spent += min(z_t·C_t, b_t)
// addition, in the same prefix order and from the same spentColumn,
// that the trie walk performs — and records delta (t's ExtendDeltas
// value) as the prefix pal entry.
func (pp *PrefixPricer) Advance(t int, delta float64) {
	if t < 0 || t >= pp.in.nT || pp.inPrefix[t] {
		panic(fmt.Sprintf("game: Advance type %d invalid for prefix %v", t, pp.prefix))
	}
	budget := pp.in.Budget
	col := pp.in.spentColumn(t, pp.bthr[t])
	spent := pp.spent
	nRows := len(spent)
	for c := range pp.chunkMaxRem {
		lo := c * palChunkRows
		hi := min(lo+palChunkRows, nRows)
		maxRem := 0.0
		for zi := lo; zi < hi; zi++ {
			sp := spent[zi] + col[zi]
			spent[zi] = sp
			if rem := budget - sp; rem > maxRem {
				maxRem = rem
			}
		}
		pp.chunkMaxRem[c] = maxRem
	}
	pp.prefix = append(pp.prefix, t)
	pp.inPrefix[t] = true
	pp.pal[t] = delta
}
