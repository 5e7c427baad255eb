package game

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"auditgame/internal/sample"
)

// Thresholds is the per-type audit budget vector b: Thresholds[t] is the
// maximum budget spendable on alerts of type t, so at most
// ⌊Thresholds[t]/C_t⌋ alerts of type t are ever audited.
type Thresholds []float64

// Key returns a canonical cache key for the vector.
func (b Thresholds) Key() string {
	var sb strings.Builder
	for i, v := range b {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(v, 'g', 12, 64))
	}
	return sb.String()
}

// Clone returns a copy of b.
func (b Thresholds) Clone() Thresholds {
	c := make(Thresholds, len(b))
	copy(c, b)
	return c
}

// String renders the vector like the paper's tables, rounding to integers
// when the values are integral.
func (b Thresholds) String() string {
	parts := make([]string, len(b))
	for i, v := range b {
		if v == math.Trunc(v) {
			parts[i] = strconv.Itoa(int(v))
		} else {
			parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
		}
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// signature is a deduplicated attack row: every victim of an entity whose
// Attack has identical (TypeProbs, R, M, K) induces the same best-response
// constraint, so the LP keeps one row per distinct signature. Ua(o,b,sig)
// = base + delta·Pat with base = R−K and delta = −(M+R).
//
// An attack raises few of the alert types, so probs is mostly zeros. nz
// holds its nonzero entries in type order, and the pricing loops run
// over those alone; probs stays for the signature's identity (sigKey,
// the float-bit interning and StructuralFingerprint). The hot loops
// index into a class's signatures rather than copying each one out by a
// range over values.
type signature struct {
	probs []float64
	nz    []typeProb // the nonzero probs, in type order
	base  float64    // R − K
	delta float64    // −(M + R)
}

// typeProb is one nonzero entry of a signature's type distribution.
type typeProb struct {
	t int
	p float64
}

// ua returns Ua = base + delta·Σ_t probs[t]·pal[t], summing the nonzero
// terms in type order.
func (s *signature) ua(pal []float64) float64 {
	var pat float64
	for _, tp := range s.nz {
		pat += tp.p * pal[tp.t]
	}
	return s.base + s.delta*pat
}

// nonzeroProbs returns the nonzero entries of probs in type order.
func nonzeroProbs(probs []float64) []typeProb {
	var nz []typeProb
	for t, p := range probs {
		if p != 0 {
			nz = append(nz, typeProb{t, p})
		}
	}
	return nz
}

// Instance binds a Game to an audit budget and a realization source, adds
// per-entity signature deduplication, and caches detection probabilities.
// It is the evaluation engine every solver runs on.
type Instance struct {
	G      *Game
	Budget float64
	Src    sample.Source

	// Workers bounds the realization-sharding parallelism of Pal and
	// PalBatch evaluations: 0 means GOMAXPROCS, 1 forces serial. Results
	// are bitwise-identical at every setting (see engine.go).
	Workers int

	// classes are the entity equivalence classes: entities with the same
	// deduplicated signature set share a best response, so the LP keeps
	// one copy weighted by the summed p_e. This is an exact reduction
	// (their u_e coincide in every equilibrium of the zero-sum LP) that
	// shrinks the real-data instances dramatically — e.g. the credit
	// game's 100 applicants collapse to a handful of classes.
	classes     []entityClass
	entityClass []int // entity index → class index
	// ws are the weights of Src's realizations after duplicate rows
	// merge their weights (sample.Dedup). The realizations themselves
	// are stored column-major, [t][row] with row zi of type t at
	// t·len(ws)+zi, because every kernel iterates rows with the type
	// fixed and so streams contiguous memory: zT holds Z, zeffT the
	// Z′ = max(Z, 1) of Eq. 1, and zrecipT 1/Z′, so the audited-fraction
	// term multiplies instead of divides.
	ws      []float64
	nT      int
	zT      []float64
	zeffT   []float64
	zrecipT []float64
	// spCols caches per-(type, threshold) budget-consumption columns
	// min(z_t·C_t, b_t) for the trie walk; see spentColumn (trie.go).
	spCols spColCache
	// scratch pools trie-walk worker state across pal evaluations;
	// see getTrieScratch (trie.go).
	scratch sync.Pool
	// masters pools restricted-master LP workspaces (*lp.Workspace)
	// across solves: brute force's grid, Exact under parallel ISHM
	// workers and every CGGS round reuse their storage.
	masters sync.Pool
	// pricers pools PrefixPricers and their per-step scratch across
	// pricing rounds; deltas memoizes their short-prefix deltas across
	// the solves sharing the instance (prefix.go).
	pricers sync.Pool
	deltas  deltaMemo

	// Detection-probability engine state (engine.go): interned ordering
	// and threshold IDs plus a sharded result cache, so concurrent
	// solvers (parallel ISHM combos, experiment sweeps sharing an
	// instance) hit neither a global lock nor the allocator.
	orderings  orderingInterner
	thresholds thresholdInterner
	palShards  [palShardCount]palShard
	palEvals   atomic.Int64
}

type entityClass struct {
	sigs   []signature
	weight float64 // Σ p_e over members
}

// NewInstance validates g and prepares an evaluation instance.
func NewInstance(g *Game, budget float64, src sample.Source) (*Instance, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("game: budget %v must be finite and ≥ 0", budget)
	}
	if src == nil {
		return nil, fmt.Errorf("game: nil realization source")
	}
	in := &Instance{G: g, Budget: budget, Src: src, nT: len(g.Types)}
	rows, weights := sample.Dedup(src)
	if len(rows) == 0 {
		return nil, fmt.Errorf("game: realization source is empty")
	}
	in.ws = weights
	nRows := len(rows)
	in.zT = make([]float64, in.nT*nRows)
	in.zeffT = make([]float64, in.nT*nRows)
	in.zrecipT = make([]float64, in.nT*nRows)
	for zi, z := range rows {
		if len(z) != in.nT {
			return nil, fmt.Errorf("game: realization %d has %d counts, want |T| = %d", zi, len(z), in.nT)
		}
		for t, zt := range z {
			v := float64(zt)
			in.zT[t*nRows+zi] = v
			if v < 1 {
				v = 1 // the Z′ = max(Z, 1) convention of Eq. 1
			}
			in.zeffT[t*nRows+zi] = v
			in.zrecipT[t*nRows+zi] = 1 / v
		}
	}
	in.classes, in.entityClass = classify(g)
	return in, nil
}

// classify partitions g's entities into signature classes: an entity's
// signatures are its attacks deduplicated by sigKey (first occurrence
// kept) and sorted by sigKey, and entities with the same sorted key list
// share one class, weighted by their summed p_e, whose signatures are
// its first member's. The sigKey order is the LP's row order within a
// class, which fixes the simplex pivot path.
//
// Formatting every attack's floats would dominate instance construction
// (thousands of attacks, a handful of distinct signatures), so
// signatures are interned in two levels: an attack's exact float bits
// map to a canonical id, and only a bit pattern seen for the first time
// is formatted, its sigKey mapping it to the id of any earlier pattern
// that formats alike. Ids then stand in for keys in the per-entity
// dedup and in the class key.
func classify(g *Game) ([]entityClass, []int) {
	var (
		byBits  = make(map[string]int32) // exact bits of (base, delta, probs) → id
		byKey   = make(map[string]int32) // sigKey → id
		keys    []string                 // id → sigKey
		stamp   []int                    // id → 1 + the last entity holding it
		buf     []byte
		cur     []idSig // the current entity's deduplicated signatures
		classes []entityClass
		classOf = make(map[string]int)
		of      = make([]int, len(g.Entities))
	)
	for e := range g.Entities {
		cur = cur[:0]
		for _, a := range g.Attacks[e] {
			sig := signature{
				probs: a.TypeProbs,
				base:  a.Benefit - a.Cost,
				delta: -(a.Penalty + a.Benefit),
			}
			buf = appendFloatBits(buf[:0], sig.base)
			buf = appendFloatBits(buf, sig.delta)
			for _, p := range sig.probs {
				buf = appendFloatBits(buf, p)
			}
			id, ok := byBits[string(buf)]
			if !ok {
				key := sigKey(sig)
				if id, ok = byKey[key]; !ok {
					id = int32(len(keys))
					byKey[key] = id
					keys = append(keys, key)
					stamp = append(stamp, 0)
				}
				byBits[string(buf)] = id
			}
			if stamp[id] == e+1 {
				continue
			}
			stamp[id] = e + 1
			cur = append(cur, idSig{id: id, sig: sig})
		}
		slices.SortFunc(cur, func(x, y idSig) int { return strings.Compare(keys[x.id], keys[y.id]) })
		buf = buf[:0]
		for _, s := range cur {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(s.id))
		}
		ci, ok := classOf[string(buf)]
		if !ok {
			ci = len(classes)
			classOf[string(buf)] = ci
			var sigs []signature
			for _, s := range cur {
				s.sig.nz = nonzeroProbs(s.sig.probs)
				sigs = append(sigs, s.sig)
			}
			classes = append(classes, entityClass{sigs: sigs})
		}
		classes[ci].weight += g.Entities[e].PAttack
		of[e] = ci
	}
	return classes, of
}

// idSig is a signature tagged with its canonical id during classify.
type idSig struct {
	id  int32
	sig signature
}

func appendFloatBits(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// sigKey is a signature's decimal identity: signatures that format alike
// are one LP row, and an entity's rows are ordered by it.
func sigKey(s signature) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.12g|%.12g|", s.base, s.delta)
	for _, p := range s.probs {
		fmt.Fprintf(&sb, "%.12g,", p)
	}
	return sb.String()
}

// PalInjected returns the exact detection probability of a single attack
// alert of type attackType under ordering o and thresholds b, accounting
// for the alert itself: the attack inflates its bin from Z to Z+1, which
// both dilutes the audited fraction (n/(Z+1)) and increases the budget
// the bin reserves. Pal (Eq. 1) drops these effects under the paper's
// rare-attack approximation; the difference between the two quantifies
// that approximation and is what the replay validation measures.
func (in *Instance) PalInjected(o Ordering, b Thresholds, attackType int) float64 {
	// Per-position constants hoisted out of the realization loop, as in
	// the Pal kernel.
	costs := make([]float64, len(o))
	caps := make([]float64, len(o))
	for i, t := range o {
		costs[i] = in.G.Types[t].Cost
		caps[i] = math.Floor(b[t] / costs[i])
	}
	var out float64
	nRows := len(in.ws)
	for zi, w := range in.ws {
		spent := 0.0
		for i, t := range o {
			ct := costs[i]
			zt := in.zT[t*nRows+zi]
			if t == attackType {
				zt++ // the attack alert joins its bin
				avail := math.Floor((in.Budget - spent) / ct)
				if avail < 0 {
					avail = 0
				}
				nt := math.Min(avail, math.Min(caps[i], zt))
				if nt > 0 {
					out += w * nt / zt
				}
			}
			spent += math.Min(b[t], zt*ct)
		}
	}
	return out
}

// UaRow returns the adversary utilities Ua(o,b,·) for every deduplicated
// attack signature of entity e, given precomputed pal = Pal(o,b).
func (in *Instance) UaRow(e int, pal []float64) []float64 {
	sigs := in.classes[in.entityClass[e]].sigs
	out := make([]float64, len(sigs))
	for i := range sigs {
		out[i] = sigs[i].ua(pal)
	}
	return out
}

// NumSignatures returns the number of deduplicated attack rows for entity
// e — the count of distinct best-response constraints it contributes.
func (in *Instance) NumSignatures(e int) int {
	return len(in.classes[in.entityClass[e]].sigs)
}

// NumClasses returns the number of entity equivalence classes the LP
// actually optimizes over.
func (in *Instance) NumClasses() int { return len(in.classes) }

// BestResponse returns entity e's best attainable utility against the
// mixed policy defined by orderings Q with probabilities po and thresholds
// b, honoring the no-attack option when the game allows it.
func (in *Instance) BestResponse(e int, Q []Ordering, po []float64, b Thresholds) float64 {
	return in.classBestResponse(in.entityClass[e], po, in.PalBatch(Q, b))
}

func (in *Instance) classBestResponse(ci int, po []float64, pals [][]float64) float64 {
	best := math.Inf(-1)
	if in.G.AllowNoAttack {
		best = 0
	}
	sigs := in.classes[ci].sigs
	for s := range sigs {
		var u float64
		for qi, pal := range pals {
			if po[qi] == 0 {
				continue
			}
			u += po[qi] * sigs[s].ua(pal)
		}
		if u > best {
			best = u
		}
	}
	return best
}

// Loss returns the auditor's expected loss Σ_e p_e·max_v Ua under the
// mixed policy (Q, po, b) — the objective of Eq. 4. The policy's
// detection probabilities are evaluated as one batch.
func (in *Instance) Loss(Q []Ordering, po []float64, b Thresholds) float64 {
	pals := in.PalBatch(Q, b)
	var loss float64
	for ci := range in.classes {
		if w := in.classes[ci].weight; w != 0 {
			loss += w * in.classBestResponse(ci, po, pals)
		}
	}
	return loss
}
