package game

import (
	"fmt"
	"math"
	"sync"
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
// Deltas of prefixes of at most memoPrefixTypes types are memoized on
// the instance (deltaMemo), and the checkpoint is folded only when a
// candidate misses that memo, so a walk whose short-prefix deltas were
// computed before — by an earlier pricing round, or by an earlier ISHM
// candidate on the same instance — reads no realization row for them.
//
// Bitwise contract: ExtendDelta's result equals, bit for bit, the pal
// entry the batched kernel would compute for pal(prefix+t)[t] — the
// spent fold performs the same additions in the same (prefix) order as
// the full walk, rows chunk exactly like the parallel engine
// (palChunkRows boundaries, chunk-index merge), and whenever the full
// walk's early-exit would have skipped the appended position, the
// checkpointed remainder is below the candidate's cost and contributes
// the same exact zero. A memoized delta was computed by the same pass,
// at thresholds that agree with the pricer's below the budget (DESIGN.md
// P5, P6). A PrefixPricer is not safe for concurrent use.
type PrefixPricer struct {
	in *Instance

	// Per-type constants, hoisted once per (instance, threshold vector):
	// audit cost C_t, audit cap ⌊b_t/C_t⌋, the threshold itself, and
	// the bits of min(b_t, B), type t's part of a delta memo key.
	cost     []float64
	capn     []float64
	bthr     []float64
	memoBits []uint64

	prefix   Ordering
	inPrefix []bool
	// pal is the prefix's detection-probability vector: entry t is the
	// checkpointed ExtendDelta of t at the step it was appended, zero for
	// types outside the prefix — bitwise-identical to the batched
	// kernel's pal(prefix) (absent types never audit). Each pricer gets
	// its own, never reused by a pooled successor.
	pal []float64
	// spent[zi] is realization row zi's budget consumed by the first
	// folded prefix members; folded < 0 means spent holds nothing of
	// this walk yet. fold brings it up to the whole prefix.
	spent  []float64
	folded int
	// chunkMaxRem[c] is the largest remaining budget over chunk c's rows;
	// once it drops below a candidate's cost the whole chunk contributes
	// exactly zero for that candidate and is skipped.
	chunkMaxRem []float64

	// Per-step scratch of ExtendDeltas and ExtendReducedCosts.
	deltas   []float64
	partials []float64 // [chunk][missed candidate]
	miss     []int     // indices into cands of the memo misses
	lo       []float64 // reduced-cost lower bounds per candidate
	rest     []int     // candidates surviving the pruning round
}

// NewPrefixPricer checkpoints the empty prefix of (in, b). The pricer
// comes from in's pool; Release returns it.
func NewPrefixPricer(in *Instance, b Thresholds) (*PrefixPricer, error) {
	nT := in.nT
	if len(b) != nT {
		return nil, fmt.Errorf("game: thresholds have %d entries, want |T| = %d", len(b), nT)
	}
	pp, _ := in.pricers.Get().(*PrefixPricer)
	if pp == nil {
		nChunks := (len(in.ws) + palChunkRows - 1) / palChunkRows
		pp = &PrefixPricer{
			in:          in,
			cost:        make([]float64, nT),
			capn:        make([]float64, nT),
			bthr:        make([]float64, nT),
			memoBits:    make([]uint64, nT),
			prefix:      make(Ordering, 0, nT),
			inPrefix:    make([]bool, nT),
			chunkMaxRem: make([]float64, nChunks),
			deltas:      make([]float64, nT),
			partials:    make([]float64, nChunks*nT),
			miss:        make([]int, 0, nT),
			lo:          make([]float64, nT),
			rest:        make([]int, 0, nT),
		}
	}
	pp.prefix = pp.prefix[:0]
	clear(pp.inPrefix)
	pp.pal = make([]float64, nT)
	pp.folded = -1
	for t := 0; t < nT; t++ {
		pp.cost[t] = in.G.Types[t].Cost
		pp.capn[t] = math.Floor(b[t] / pp.cost[t])
		pp.bthr[t] = b[t]
		pp.memoBits[t] = math.Float64bits(min(b[t], in.Budget))
	}
	return pp, nil
}

// Release returns the pricer's scratch to its instance's pool; the
// pricer must not be used afterwards. A vector Pal returned stays the
// caller's.
func (pp *PrefixPricer) Release() {
	pp.pal = nil
	pp.in.pricers.Put(pp)
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
// candidate. At a prefix of at most memoPrefixTypes types the memo
// answers the candidates it holds; the rest are evaluated in one chunked
// pass over the checkpointed rows and then memoized. Candidates already
// in the prefix are invalid. The pass parallelizes over (chunk ×
// candidate) cells and merges each candidate's chunk partials in
// chunk-index order, so results are bitwise-identical at every worker
// count and whichever candidates the memo answered. The returned slice
// is the pricer's scratch, valid until its next ExtendDeltas call.
func (pp *PrefixPricer) ExtendDeltas(cands []int) []float64 {
	for _, t := range cands {
		if t < 0 || t >= pp.in.nT || pp.inPrefix[t] {
			panic(fmt.Sprintf("game: ExtendDeltas candidate %d invalid for prefix %v", t, pp.prefix))
		}
	}
	in := pp.in
	nChunks := len(pp.chunkMaxRem)
	if len(cands) > cap(pp.deltas) { // only a candidate listed twice gets here
		pp.deltas = make([]float64, len(cands))
		pp.partials = make([]float64, nChunks*len(cands))
	}
	deltas := pp.deltas[:len(cands)]
	miss := pp.miss[:0]
	depth := len(pp.prefix)
	var key deltaKey
	if depth <= memoPrefixTypes {
		key = pp.memoKey()
		miss = in.deltas.lookup(key, depth, cands, pp.memoBits, deltas, miss)
	} else {
		for j := range cands {
			miss = append(miss, j)
		}
	}
	pp.miss = miss
	if len(miss) == 0 {
		return deltas
	}

	pp.fold()
	nRows := len(in.ws)
	nm := len(miss)
	partials := pp.partials[:nChunks*nm] // [chunk][missed candidate]
	in.runUnits(nChunks*nm, nRows*nm, 0, func(unit int, _ *trieScratch) {
		c, t := unit/nm, cands[miss[unit%nm]]
		if pp.chunkMaxRem[c] < pp.cost[t] {
			partials[unit] = 0 // every row's remainder is below one audit
			return
		}
		lo := c * palChunkRows
		partials[unit] = pp.extendChunk(lo, min(lo+palChunkRows, nRows), t)
	})
	for _, j := range miss {
		deltas[j] = 0
	}
	for c := 0; c < nChunks; c++ {
		for k, v := range partials[c*nm : (c+1)*nm] {
			deltas[miss[k]] += v
		}
	}
	if depth <= memoPrefixTypes {
		in.deltas.store(key, depth, cands, pp.memoBits, deltas, miss)
	}
	return deltas
}

// memoKey returns the memo key of the current prefix, its candidate
// step and the steps after it unset.
func (pp *PrefixPricer) memoKey() deltaKey {
	var key deltaKey
	for i := range key {
		key[i].t = -1
	}
	for i, t := range pp.prefix {
		key[i] = deltaStep{t: int32(t), bits: pp.memoBits[t]}
	}
	return key
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

// Advance appends type t to the prefix and records delta (t's
// ExtendDeltas value) as the prefix pal entry. Its budget consumption
// reaches the checkpoint at the next fold.
func (pp *PrefixPricer) Advance(t int, delta float64) {
	if t < 0 || t >= pp.in.nT || pp.inPrefix[t] {
		panic(fmt.Sprintf("game: Advance type %d invalid for prefix %v", t, pp.prefix))
	}
	pp.prefix = append(pp.prefix, t)
	pp.inPrefix[t] = true
	pp.pal[t] = delta
}

// fold brings the checkpoint up to the whole prefix: it folds each
// member not yet folded into every row — the same spent +=
// min(z_t·C_t, b_t) addition, in the same prefix order and from the
// same spentColumn, that the trie walk performs — starting from zero
// spent on a walk's first fold.
func (pp *PrefixPricer) fold() {
	in := pp.in
	budget := in.Budget
	if pp.folded < 0 {
		if pp.spent == nil {
			pp.spent = make([]float64, len(in.ws))
		} else {
			clear(pp.spent)
		}
		for c := range pp.chunkMaxRem {
			pp.chunkMaxRem[c] = budget
		}
		pp.folded = 0
	}
	spent := pp.spent
	nRows := len(spent)
	for ; pp.folded < len(pp.prefix); pp.folded++ {
		t := pp.prefix[pp.folded]
		col := in.spentColumn(t, pp.bthr[t])
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
	}
}

// ComposePal returns Pal(o, b) composed by walking o through a
// PrefixPricer — bit for bit the batched kernel's vector (P1) — and
// caches it as Pal does, counted in PalEvals. It is how CGGS evaluates
// its initial column, as the oracle composes every later one: the
// walk's short prefixes mostly come from the delta memo, and what is
// left costs less than a PalBatch miss (DESIGN.md P6).
func (in *Instance) ComposePal(o Ordering, b Thresholds) ([]float64, error) {
	pp, err := NewPrefixPricer(in, b)
	if err != nil {
		return nil, err
	}
	defer pp.Release()
	if pal, ok := in.cacheGet(palKey(in.orderings.intern(o), in.thresholds.intern(b))); ok {
		return pal, nil
	}
	one := make([]int, 1)
	for _, t := range o {
		one[0] = t
		pp.Advance(t, pp.ExtendDeltas(one)[0])
	}
	in.CachePal(o, b, pp.Pal())
	return pp.Pal(), nil
}

// memoPrefixTypes is the longest prefix whose deltas are memoized. The
// greedy walks of different pricing rounds and ISHM candidates mostly
// diverge within their first two steps, and a longer memo costs more
// memory than its hits repay (DESIGN.md P6).
const memoPrefixTypes = 2

// deltaMemoMax caps the memo's entries; past it the memo is cleared
// wholesale. Entries are derived data, so eviction costs recompute time
// only.
const deltaMemoMax = 1 << 16

// deltaStep is one step of a memo key: a type and the bits of
// min(b_t, B), since a threshold at or above the budget never binds
// (DESIGN.md P5).
type deltaStep struct {
	t    int32
	bits uint64
}

// deltaKey identifies the delta Δ(prefix, t): the prefix's steps in
// order, then the candidate's, then unset steps (t = −1).
type deltaKey [memoPrefixTypes + 1]deltaStep

// deltaMemo memoizes short-prefix deltas per instance. It is shared by
// concurrent solvers on the instance and allocated on first store.
type deltaMemo struct {
	mu sync.RWMutex
	m  map[deltaKey]float64
}

// lookup fills deltas[j] for every candidate cands[j] the memo holds,
// with key's first depth steps as the prefix, and appends the index of
// every other candidate to miss.
func (dm *deltaMemo) lookup(key deltaKey, depth int, cands []int, bits []uint64, deltas []float64, miss []int) []int {
	dm.mu.RLock()
	defer dm.mu.RUnlock()
	for j, t := range cands {
		key[depth] = deltaStep{t: int32(t), bits: bits[t]}
		if v, ok := dm.m[key]; ok {
			deltas[j] = v
		} else {
			miss = append(miss, j)
		}
	}
	return miss
}

// store memoizes the deltas of the missed candidates. It runs only
// after their pass has returned, so a pass that panicked stores nothing.
func (dm *deltaMemo) store(key deltaKey, depth int, cands []int, bits []uint64, deltas []float64, miss []int) {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if dm.m == nil || len(dm.m)+len(miss) > deltaMemoMax {
		dm.m = make(map[deltaKey]float64)
	}
	for _, j := range miss {
		t := cands[j]
		key[depth] = deltaStep{t: int32(t), bits: bits[t]}
		dm.m[key] = deltas[j]
	}
}
