package game

import (
	"math"
	"sync"
)

// Batched orderings share work through their common prefixes: the budget
// recursion of Eq. 1 is a left fold over an ordering's positions, so two
// orderings agreeing on their first k types perform identical work on
// every realization row for those k positions. This file builds a prefix
// trie over a batch and walks each realization row once over the trie
// instead of once per (ordering, position) — the batches every solver
// issues (all |T|! orderings of SolveFixed on small games, the growing
// column pool of a restricted master, the exhaustive pricing oracle)
// are exactly the prefix-heavy shape where this collapses most of the
// kernel work.
//
// Determinism/equivalence contract: the trie walk is bitwise-identical
// to walking each ordering independently (the per-ordering kernel in
// trie_test.go is the golden reference). Each trie node accumulates the
// contribution of its own (prefix, type) position over a chunk's rows in
// row order — the same floating-point operations, in the same order, as
// the per-ordering kernel performs at that position — and per-ordering
// results are assembled by summing each path node across chunks in
// chunk-index order, exactly as the per-ordering kernel merges its chunk
// partials. Subtree skipping (below) only ever skips positions whose
// contribution is zero, so it changes work, never results.

// palTrie is the flattened prefix trie of one ordering batch, laid out
// in DFS order so a subtree is a contiguous index range.
type palTrie struct {
	typ    []int32   // alert type at this node's position
	cost   []float64 // audit cost C_t of typ
	capn   []float64 // audit cap ⌊b_t/C_t⌋ of typ
	bthr   []float64 // threshold b_t of typ
	subMin []float64 // min audit cost over this node's whole subtree
	// childMin is the min audit cost over the node's strict descendants
	// (+Inf at leaves): rows whose post-fold remainder is below it
	// contribute exactly zero everywhere below and leave the live set.
	childMin []float64
	// spCol[node] is the node type's budget-consumption column
	// min(z_t·C_t, b_t) over all rows, shared via the instance's
	// spentColumn cache.
	spCol [][]float64
	skip  []int32 // DFS index just past this node's subtree
	depth []int32 // node depth (root children are depth 0)
	// rootAt[r] is the DFS start of the r-th depth-0 subtree; a trailing
	// sentinel holds the node count, so subtree r spans
	// [rootAt[r], rootAt[r+1]). Root subtrees are the independent work
	// units of the parallel walk: each starts from zero spent budget.
	rootAt []int32
	// path[k][i] is the node index of ordering k's i-th position.
	path     [][]int32
	maxDepth int
}

// trieBuildNode is the temporary linked form used during insertion;
// children keep first-appearance order so the flattened DFS order — and
// with it every accumulation order — depends only on the batch, never
// on map iteration.
type trieBuildNode struct {
	t        int32
	children []int32
}

// buildPalTrie inserts the batch into a prefix trie and flattens it.
func (in *Instance) buildPalTrie(os []Ordering, b Thresholds) *palTrie {
	nodes := make([]trieBuildNode, 0, len(os)*4)
	var roots []int32
	paths := make([][]int32, len(os))
	childOf := func(kids []int32, t int32) int32 {
		for _, c := range kids {
			if nodes[c].t == t {
				return c
			}
		}
		return -1
	}
	for k, o := range os {
		parent := int32(-1) // -1: attach to the root list
		path := make([]int32, len(o))
		for i, ti := range o {
			t := int32(ti)
			var kids []int32
			if parent < 0 {
				kids = roots
			} else {
				kids = nodes[parent].children
			}
			c := childOf(kids, t)
			if c < 0 {
				c = int32(len(nodes))
				nodes = append(nodes, trieBuildNode{t: t})
				// Link by index, never through a pointer held across the
				// append above — growing nodes relocates its backing array.
				if parent < 0 {
					roots = append(roots, c)
				} else {
					nodes[parent].children = append(nodes[parent].children, c)
				}
			}
			path[i] = c
			parent = c
		}
		paths[k] = path
	}

	tr := &palTrie{
		typ:      make([]int32, len(nodes)),
		cost:     make([]float64, len(nodes)),
		capn:     make([]float64, len(nodes)),
		bthr:     make([]float64, len(nodes)),
		subMin:   make([]float64, len(nodes)),
		childMin: make([]float64, len(nodes)),
		spCol:    make([][]float64, len(nodes)),
		skip:     make([]int32, len(nodes)),
		depth:    make([]int32, len(nodes)),
		rootAt:   make([]int32, 0, len(roots)+1),
		path:     paths,
	}

	// Iterative DFS flatten: assign final indices, record depth and
	// subtree extents, then fill subMin bottom-up over the DFS layout
	// (children always follow their parent, so a reverse sweep sees every
	// child before its parent).
	remap := make([]int32, len(nodes))
	var next int32
	type frame struct {
		node  int32
		depth int32
	}
	stack := make([]frame, 0, 64)
	for _, r := range roots {
		tr.rootAt = append(tr.rootAt, next)
		stack = append(stack, frame{r, 0})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			bn := &nodes[f.node]
			id := next
			next++
			remap[f.node] = id
			t := int(bn.t)
			tr.typ[id] = bn.t
			tr.cost[id] = in.G.Types[t].Cost
			tr.capn[id] = math.Floor(b[t] / tr.cost[id])
			tr.bthr[id] = b[t]
			tr.depth[id] = f.depth
			if int(f.depth)+1 > tr.maxDepth {
				tr.maxDepth = int(f.depth) + 1
			}
			// Push children in reverse so they pop in first-appearance
			// order, keeping the DFS layout stable.
			for i := len(bn.children) - 1; i >= 0; i-- {
				stack = append(stack, frame{bn.children[i], f.depth + 1})
			}
		}
	}
	// skip: a node's subtree ends where the next node at the same-or-
	// shallower depth begins. Sweep backwards maintaining the most recent
	// start index per depth.
	last := make([]int32, tr.maxDepth+1)
	for d := range last {
		last[d] = int32(len(nodes))
	}
	for id := int32(len(nodes)) - 1; id >= 0; id-- {
		d := tr.depth[id]
		tr.skip[id] = last[d]
		last[d] = id
		for dd := int(d) + 1; dd <= tr.maxDepth; dd++ {
			last[dd] = id
		}
	}
	// subMin/childMin bottom-up.
	for id := int32(len(nodes)) - 1; id >= 0; id-- {
		cm := math.Inf(1)
		for c := id + 1; c < tr.skip[id]; c = tr.skip[c] {
			if tr.subMin[c] < cm {
				cm = tr.subMin[c]
			}
		}
		tr.childMin[id] = cm
		m := tr.cost[id]
		if cm < m {
			m = cm
		}
		tr.subMin[id] = m
	}
	for id := range tr.spCol {
		tr.spCol[id] = in.spentColumn(int(tr.typ[id]), tr.bthr[id])
	}
	for k := range paths {
		for i, id := range paths[k] {
			paths[k][i] = remap[id]
		}
	}
	tr.rootAt = append(tr.rootAt, next)
	return tr
}

// palCompute evaluates the orderings against the realization matrix and
// returns one freshly allocated pal vector per ordering, sharing prefix
// work across the batch through a trie. Results are bitwise-identical to
// evaluating each ordering on its own at every worker count: work units
// are (chunk × root-subtree) cells writing disjoint node spans of their
// chunk's scratch, and node partials merge in chunk-index order.
func (in *Instance) palCompute(os []Ordering, b Thresholds) [][]float64 {
	nT := len(in.G.Types)
	nRows := len(in.ws)
	nChunks := (nRows + palChunkRows - 1) / palChunkRows
	tr := in.buildPalTrie(os, b)
	nNodes := len(tr.typ)
	nRoots := len(tr.rootAt) - 1

	pbacking := make([]float64, nChunks*nNodes)
	partials := make([][]float64, nChunks)
	for c := range partials {
		partials[c] = pbacking[c*nNodes : (c+1)*nNodes : (c+1)*nNodes]
	}
	in.runUnits(nChunks*nRoots, nRows*len(os), tr.maxDepth, func(unit int, sc *trieScratch) {
		c, r := unit/nRoots, unit%nRoots
		lo := c * palChunkRows
		hi := min(lo+palChunkRows, nRows)
		in.palTrieChunk(tr, lo, hi, tr.rootAt[r], tr.rootAt[r+1], partials[c], sc)
	})

	// Deterministic merge: chunk-index order per node, every worker
	// count, then scatter node sums back to each ordering's pal row.
	merged := make([]float64, nNodes)
	for c := 0; c < nChunks; c++ {
		for i, v := range partials[c] {
			merged[i] += v
		}
	}
	backing := make([]float64, len(os)*nT)
	out := make([][]float64, len(os))
	for k, o := range os {
		row := backing[k*nT : (k+1)*nT : (k+1)*nT]
		for i := range o {
			row[o[i]] = merged[tr.path[k][i]]
		}
		out[k] = row
	}
	return out
}

// spColCache memoizes budget-consumption columns min(z_t·C_t, b_t) per
// (type, threshold bits). Thresholds recur heavily across trie walks —
// one solve holds them fixed, a brute-force sweep revisits each
// coordinate value thousands of times — so the column is computed once
// and shared read-only by every node of that (type, threshold). The
// cache is cleared wholesale past a size cap; entries are derived data,
// so eviction costs recompute time only.
type spColCache struct {
	mu sync.Mutex
	m  map[spColKey][]float64
}

type spColKey struct {
	t    int32
	bits uint64
}

const spColCacheMax = 4096

// spentColumn returns the cached min(z_t·C_t, b_t) column for (t, bt).
func (in *Instance) spentColumn(t int, bt float64) []float64 {
	key := spColKey{t: int32(t), bits: math.Float64bits(bt)}
	c := &in.spCols
	c.mu.Lock()
	defer c.mu.Unlock()
	if col, ok := c.m[key]; ok {
		return col
	}
	if c.m == nil {
		c.m = make(map[spColKey][]float64)
	} else if len(c.m) >= spColCacheMax {
		c.m = make(map[spColKey][]float64)
	}
	nRows := len(in.ws)
	ct := in.G.Types[t].Cost
	col := make([]float64, nRows)
	for zi, z := range in.zT[t*nRows : (t+1)*nRows] {
		sp := z * ct
		if bt < sp {
			sp = bt
		}
		col[zi] = sp
	}
	c.m[key] = col
	return col
}

// trieScratch is one worker's walk state: per-depth spent checkpoints
// and live-row index lists over a chunk's rows, plus the constant
// depth-"-1" state every root subtree starts from.
type trieScratch struct {
	spent []float64 // [depth][row], flat maxDepth × palChunkRows
	live  [][]int32 // per-depth surviving row indices (chunk-relative)
	all   []int32   // 0..palChunkRows-1
	zero  []float64 // palChunkRows zeros
	// typ and contrib are the grid sweep's path state (grid.go): the
	// type and the row sum of each node on the current root path.
	typ     []int32
	contrib []float64
}

// getTrieScratch pulls a pooled scratch, reallocating only when a
// deeper trie than any previous walk needs more checkpoint rows. No
// zeroing on reuse: the walk never reads a scratch cell it has not
// written on the current live path (depth-d checkpoints are consumed
// only through the depth-d live list, which is rebuilt per subtree).
// Depth 0 (a kernel that walks no trie) gets nil.
func (in *Instance) getTrieScratch(maxDepth int) *trieScratch {
	if maxDepth == 0 {
		return nil
	}
	if v := in.scratch.Get(); v != nil {
		if sc := v.(*trieScratch); len(sc.live) >= maxDepth {
			return sc
		}
	}
	return newTrieScratch(maxDepth)
}

func (in *Instance) putTrieScratch(sc *trieScratch) {
	if sc != nil {
		in.scratch.Put(sc)
	}
}

func newTrieScratch(maxDepth int) *trieScratch {
	sc := &trieScratch{
		spent:   make([]float64, maxDepth*palChunkRows),
		live:    make([][]int32, maxDepth),
		all:     make([]int32, palChunkRows),
		zero:    make([]float64, palChunkRows),
		typ:     make([]int32, maxDepth),
		contrib: make([]float64, maxDepth),
	}
	for d := range sc.live {
		sc.live[d] = make([]int32, 0, palChunkRows)
	}
	for r := range sc.all {
		sc.all[r] = int32(r)
	}
	return sc
}

// palTrieChunk accumulates realization rows [lo, hi) over the trie
// subtree [s, e) into acc (one scalar per node). This is the innermost
// loop of every solver. The walk is node-outer/row-inner: per node the
// type's constants and columns are hoisted and the row loop streams the
// parent depth's spent checkpoints, so each step is a handful of
// sequential loads — where the row-outer walk paid per-node metadata
// loads and unpredictable branches on every step. Per-depth live lists
// reproduce the per-ordering kernel's row-level early exit: a row whose
// post-fold remainder drops below the cheapest descendant cost
// (childMin) leaves the list, which only ever drops zero-contribution
// positions, and a row kept past a child whose own subMin exceeds the
// remainder contributes the same exact zero through the nt > 0 guard,
// so sums are bitwise unchanged (see the contract above).
func (in *Instance) palTrieChunk(tr *palTrie, lo, hi int, s, e int32, acc []float64, sc *trieScratch) {
	skip := tr.skip
	for i := s; i < e; {
		f := in.nodeFold(tr, i, lo, hi, sc)
		if len(f.pLive) == 0 {
			i = skip[i] // no live row can afford any audit in this subtree
			continue
		}
		if skip[i] == i+1 {
			acc[i] += f.leaf()
		} else {
			acc[i] += f.fold(tr.spCol[i][lo:hi], tr.childMin[i], sc)
		}
		i++
	}
}

// nodeFold is trie node i's rowFold over chunk rows [lo, hi): its
// type's columns and constants, and the parent depth's spent
// checkpoints and live rows — the zero-spent all-rows state at the
// roots.
func (in *Instance) nodeFold(tr *palTrie, i int32, lo, hi int, sc *trieScratch) rowFold {
	n, nRows := hi-lo, len(in.ws)
	t, d := int(tr.typ[i]), int(tr.depth[i])
	f := rowFold{
		budget: in.Budget, ct: tr.cost[i], capn: tr.capn[i], d: d,
		ws: in.ws[lo:hi], zeff: in.zeffT[t*nRows+lo : t*nRows+hi], recip: in.zrecipT[t*nRows+lo : t*nRows+hi],
	}
	if d == 0 {
		f.pSpent, f.pLive = sc.zero[:n], sc.all[:n]
	} else {
		f.pSpent, f.pLive = sc.spent[(d-1)*palChunkRows:(d-1)*palChunkRows+n], sc.live[d-1]
	}
	return f
}

// rowFold is one trie position of the Eq. 1 budget recursion over a
// chunk's live rows: the position's audit cost, cap ⌊b_t/C_t⌋, depth d
// and type columns, and the parent's checkpoints. Both trie kernels (the
// fixed-threshold walk above and the grid sweep of grid.go) run their
// row loops through it, so the floating-point operations behind every
// bitwise contract exist once.
type rowFold struct {
	budget, ct, capn float64
	d                int
	ws, zeff, recip  []float64 // chunk-relative
	pSpent           []float64
	pLive            []int32
}

// leaf returns the position's contribution Σ w·n_t/Z′_t over the live
// rows, where n_t = min(⌊(B − spent)/C_t⌋, cap, Z′_t).
func (f *rowFold) leaf() float64 {
	budget, ct, capn := f.budget, f.ct, f.capn
	ws, zeff, recip, pSpent := f.ws, f.zeff, f.recip, f.pSpent
	var a float64
	if ct == 1 {
		for _, rr := range f.pLive {
			nt := math.Floor(budget - pSpent[rr])
			if capn < nt {
				nt = capn
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
		}
	} else {
		for _, rr := range f.pLive {
			nt := math.Floor((budget - pSpent[rr]) / ct)
			if capn < nt {
				nt = capn
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
		}
	}
	return a
}

// fold is leaf for an inner node: it also folds the position's budget
// consumption sp = min(z_t·C_t, b_t) into the depth-d spent checkpoints
// of sc and rebuilds its depth-d live list from the rows whose remainder
// can still afford the cheapest descendant audit cm.
func (f *rowFold) fold(sp []float64, cm float64, sc *trieScratch) float64 {
	budget, ct, capn, d := f.budget, f.ct, f.capn, f.d
	ws, zeff, recip, pSpent := f.ws, f.zeff, f.recip, f.pSpent
	cur := sc.spent[d*palChunkRows : d*palChunkRows+len(ws)]
	live := sc.live[d][:0]
	var a float64
	if ct == 1 {
		for _, rr := range f.pLive {
			spent := pSpent[rr]
			nt := math.Floor(budget - spent)
			if capn < nt {
				nt = capn
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
			ns := spent + sp[rr]
			cur[rr] = ns
			if budget-ns >= cm {
				live = append(live, rr)
			}
		}
	} else {
		for _, rr := range f.pLive {
			spent := pSpent[rr]
			nt := math.Floor((budget - spent) / ct)
			if capn < nt {
				nt = capn
			}
			if z := zeff[rr]; z < nt {
				nt = z
			}
			if nt > 0 {
				a += ws[rr] * nt * recip[rr]
			}
			ns := spent + sp[rr]
			cur[rr] = ns
			if budget-ns >= cm {
				live = append(live, rr)
			}
		}
	}
	sc.live[d] = live
	return a
}
