package game

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"auditgame/internal/fault"
)

// This file is the detection-probability evaluation engine: interned
// (ordering, threshold) IDs, a sharded result cache, the cached and
// uncached batch entry points, and the worker pool every kernel (the
// trie walk of trie.go, the grid sweep of grid.go, the prefix pricer of
// prefix.go) shards its work units across.
//
// Determinism contract: results are bitwise-identical at every worker
// count. The realization matrix is cut into fixed-size chunks whose
// boundaries depend only on the data; each chunk accumulates into its own
// scratch, and partial sums are merged in chunk-index order. The serial
// path runs the same chunked reduction, so "parallel equals serial" holds
// to the last bit rather than up to floating-point reassociation.

// fnv1a64 constants for the interners' content hashes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// orderingInterner assigns stable compact IDs to orderings by content.
// The hit path hashes the elements on the stack and takes one shard-free
// read lock — no allocation, no string building.
type orderingInterner struct {
	mu     sync.RWMutex
	byHash map[uint64][]int32
	vecs   []Ordering
}

func hashOrdering(o Ordering) uint64 {
	h := uint64(fnvOffset64)
	for _, t := range o {
		h = (h ^ uint64(t)) * fnvPrime64
	}
	return (h ^ uint64(len(o))) * fnvPrime64
}

func (oi *orderingInterner) intern(o Ordering) int32 {
	h := hashOrdering(o)
	oi.mu.RLock()
	for _, id := range oi.byHash[h] {
		if equalOrdering(oi.vecs[id], o) {
			oi.mu.RUnlock()
			return id
		}
	}
	oi.mu.RUnlock()

	oi.mu.Lock()
	defer oi.mu.Unlock()
	if oi.byHash == nil {
		oi.byHash = make(map[uint64][]int32)
	}
	for _, id := range oi.byHash[h] {
		if equalOrdering(oi.vecs[id], o) {
			return id
		}
	}
	id := int32(len(oi.vecs))
	oi.vecs = append(oi.vecs, o.Clone())
	oi.byHash[h] = append(oi.byHash[h], id)
	return id
}

// lookup resolves an ordering's interned ID without inserting on a
// miss — the read-through half of the cache-bypass path, which must not
// grow the intern tables for throwaway partial orderings.
func (oi *orderingInterner) lookup(o Ordering) (int32, bool) {
	h := hashOrdering(o)
	oi.mu.RLock()
	defer oi.mu.RUnlock()
	for _, id := range oi.byHash[h] {
		if equalOrdering(oi.vecs[id], o) {
			return id, true
		}
	}
	return 0, false
}

func (oi *orderingInterner) size() int {
	oi.mu.RLock()
	defer oi.mu.RUnlock()
	return len(oi.vecs)
}

func equalOrdering(a, b Ordering) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// thresholdInterner is the float-vector analogue, keyed on exact bit
// patterns. Bit-exact keys are stricter than the old 12-significant-digit
// string keys, which could alias two thresholds differing only past the
// 12th digit onto one cache entry.
type thresholdInterner struct {
	mu     sync.RWMutex
	byHash map[uint64][]int32
	vecs   []Thresholds
}

func hashThresholds(b Thresholds) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range b {
		h = (h ^ math.Float64bits(v)) * fnvPrime64
	}
	return (h ^ uint64(len(b))) * fnvPrime64
}

func (ti *thresholdInterner) intern(b Thresholds) int32 {
	h := hashThresholds(b)
	ti.mu.RLock()
	for _, id := range ti.byHash[h] {
		if equalThresholds(ti.vecs[id], b) {
			ti.mu.RUnlock()
			return id
		}
	}
	ti.mu.RUnlock()

	ti.mu.Lock()
	defer ti.mu.Unlock()
	if ti.byHash == nil {
		ti.byHash = make(map[uint64][]int32)
	}
	for _, id := range ti.byHash[h] {
		if equalThresholds(ti.vecs[id], b) {
			return id
		}
	}
	id := int32(len(ti.vecs))
	ti.vecs = append(ti.vecs, b.Clone())
	ti.byHash[h] = append(ti.byHash[h], id)
	return id
}

// lookup resolves a threshold vector's interned ID without inserting.
func (ti *thresholdInterner) lookup(b Thresholds) (int32, bool) {
	h := hashThresholds(b)
	ti.mu.RLock()
	defer ti.mu.RUnlock()
	for _, id := range ti.byHash[h] {
		if equalThresholds(ti.vecs[id], b) {
			return id, true
		}
	}
	return 0, false
}

func (ti *thresholdInterner) size() int {
	ti.mu.RLock()
	defer ti.mu.RUnlock()
	return len(ti.vecs)
}

func equalThresholds(a, b Thresholds) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// palShardCount shards the result cache so concurrent solvers hit
// different locks; must be a power of two.
const palShardCount = 16

type palShard struct {
	mu sync.RWMutex
	m  map[uint64][]float64
}

// palKey packs the interned IDs into one cache key.
func palKey(oid, bid int32) uint64 {
	return uint64(uint32(oid))<<32 | uint64(uint32(bid))
}

// palShardOf spreads keys across shards with a splitmix64 finalizer, so
// sequentially issued IDs don't pile onto one shard.
func palShardOf(key uint64) int {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return int(key & (palShardCount - 1))
}

func (in *Instance) cacheGet(key uint64) ([]float64, bool) {
	s := &in.palShards[palShardOf(key)]
	s.mu.RLock()
	pal, ok := s.m[key]
	s.mu.RUnlock()
	return pal, ok
}

// cachePut stores pal and reports whether the key was newly inserted.
// Two goroutines may compute the same missing key concurrently; their
// results are bitwise-identical (see the determinism contract above), so
// the overwrite is harmless, but only the first insert counts toward
// PalEvals — keeping the accounting deterministic under parallel solvers.
func (in *Instance) cachePut(key uint64, pal []float64) bool {
	s := &in.palShards[palShardOf(key)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64][]float64)
	}
	_, existed := s.m[key]
	s.m[key] = pal
	s.mu.Unlock()
	return !existed
}

// Pal returns the per-type detection probabilities Pal(o,b,t) of Eq. 1:
// the expected audited fraction of type-t alerts under ordering o and
// thresholds b. Types absent from a partial ordering o get probability 0.
//
// The expectation follows the paper's budget recursion: under realization
// Z, earlier types in the order consume min{b_t, Z_t·C_t} budget; the
// budget left for type t admits ⌊·/C_t⌋ audits, further capped by the
// threshold and the realized count. Eq. 1's ratio n_t/Z_t is evaluated at
// Z′_t = max(Z_t, 1): the attack's own alert makes the bin non-empty, and
// the "attacks are rare" approximation keeps benign consumption at Z_t.
//
// Results are cached per (ordering, threshold); the hit path performs no
// allocation. The returned slice is shared — callers must not mutate it.
func (in *Instance) Pal(o Ordering, b Thresholds) []float64 {
	key := palKey(in.orderings.intern(o), in.thresholds.intern(b))
	if pal, ok := in.cacheGet(key); ok {
		return pal
	}
	pal := in.palCompute([]Ordering{o}, b)[0]
	if in.cachePut(key, pal) {
		in.palEvals.Add(1)
	}
	return pal
}

// PalBatch returns Pal(o,b) for every ordering in os, evaluating all
// cache misses together in a single pass over the realization matrix.
// Row k of the result corresponds to os[k]; rows are shared cache entries
// and must not be mutated. Batching amortizes the per-realization row
// loads across orderings and gives the parallel kernel enough work to
// shard realizations across workers.
func (in *Instance) PalBatch(os []Ordering, b Thresholds) [][]float64 {
	out := make([][]float64, len(os))
	bid := in.thresholds.intern(b)
	keys := make([]uint64, len(os))
	var missIdx []int
	var missOrd []Ordering
	for k, o := range os {
		keys[k] = palKey(in.orderings.intern(o), bid)
		if pal, ok := in.cacheGet(keys[k]); ok {
			out[k] = pal
		} else {
			missIdx = append(missIdx, k)
			missOrd = append(missOrd, o)
		}
	}
	if len(missOrd) > 0 {
		pals := in.palCompute(missOrd, b)
		var inserted int64
		for j, k := range missIdx {
			out[k] = pals[j]
			if in.cachePut(keys[k], pals[j]) {
				inserted++
			}
		}
		in.palEvals.Add(inserted)
	}
	return out
}

// PalBatchNoCache evaluates the orderings like PalBatch but never grows
// the cache or the intern tables: already-cached entries are still
// served (read-through), misses are computed and returned without being
// stored. The pricing oracle's partial orderings are evaluated once and
// never looked up again — caching ~|T|²/2 of them per generated column
// only bloats the tables. Returned miss rows are freshly allocated and
// owned by the caller; hit rows are shared cache entries and must not be
// mutated.
func (in *Instance) PalBatchNoCache(os []Ordering, b Thresholds) [][]float64 {
	out := make([][]float64, len(os))
	var missIdx []int
	var missOrd []Ordering
	if bid, ok := in.thresholds.lookup(b); ok {
		for k, o := range os {
			if oid, ok := in.orderings.lookup(o); ok {
				if pal, hit := in.cacheGet(palKey(oid, bid)); hit {
					out[k] = pal
					continue
				}
			}
			missIdx = append(missIdx, k)
			missOrd = append(missOrd, o)
		}
	} else {
		missIdx = make([]int, len(os))
		missOrd = os
		for k := range os {
			missIdx[k] = k
		}
	}
	if len(missOrd) > 0 {
		pals := in.palCompute(missOrd, b)
		for j, k := range missIdx {
			out[k] = pals[j]
		}
		in.palEvals.Add(int64(len(missOrd)))
	}
	return out
}

// CacheStats reports the sizes of the pal result cache and the two
// intern tables — the quantities the cache-bounding tests assert stay
// flat while the oracle churns through throwaway partial orderings.
func (in *Instance) CacheStats() (pals, orderings, thresholds int) {
	for s := range in.palShards {
		sh := &in.palShards[s]
		sh.mu.RLock()
		pals += len(sh.m)
		sh.mu.RUnlock()
	}
	return pals, in.orderings.size(), in.thresholds.size()
}

// palChunkRows is the fixed realization-chunk size. Boundaries depend
// only on the matrix, never on the worker count, which is what makes the
// merged result independent of parallelism.
const palChunkRows = 1024

// palParallelMinWork is the rows×orderings product below which the
// dispatch loop stays serial; tiny evaluations aren't worth goroutines.
const palParallelMinWork = 8192

// runUnits calls unit(u, sc) once for every work unit u in [0, nUnits)
// — the one worker pool behind every pal kernel (palCompute,
// PalGridSweep, PrefixPricer.ExtendDeltas). Units must write disjoint
// scratch, so which worker runs a unit never changes a result. sc is the
// running worker's trie scratch, sized for walks of the given depth (nil
// when depth is 0). work sizes the pool (see workerCount); the serial
// path allocates nothing.
//
// Panic containment: a panicking worker must not kill the process
// (callers above the solver entry points expect a typed error) and must
// not strand its siblings. The first panic value is captured, the
// panicking worker exits, the remaining workers drain the remaining
// units, and once all have returned the panic is re-raised on the
// calling goroutine, where the solver entry guard converts it to a
// *SolveError.
func (in *Instance) runUnits(nUnits, work, depth int, unit func(u int, sc *trieScratch)) {
	workers := in.workerCount(nUnits, work)
	if workers <= 1 {
		sc := in.getTrieScratch(depth)
		for u := 0; u < nUnits; u++ {
			palWorkerFault()
			unit(u, sc)
		}
		in.putTrieScratch(sc)
		return
	}
	var panicked atomic.Pointer[palPanic]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &palPanic{val: r})
				}
			}()
			sc := in.getTrieScratch(depth)
			for {
				u := int(next.Add(1)) - 1
				if u >= nUnits {
					in.putTrieScratch(sc)
					return
				}
				palWorkerFault()
				unit(u, sc)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
}

// palPanic carries the first panic recovered in a pool worker back to
// the dispatching goroutine for re-raising.
type palPanic struct{ val any }

// palWorkerFault is the fault.PalWorker injection point, hit once per
// work unit. It is panic-only because the kernels have no error return.
func palWorkerFault() {
	if err := fault.Inject(fault.PalWorker); err != nil {
		panic(err)
	}
}

// workerCount resolves the sharding width for one evaluation: Workers
// when set, else GOMAXPROCS, clamped to the work-unit count and to 1
// when the total work is too small to amortize goroutine handoff.
func (in *Instance) workerCount(nUnits, work int) int {
	w := in.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nUnits {
		w = nUnits
	}
	if work < palParallelMinWork {
		return 1
	}
	return w
}

// PalEvals returns the number of uncached Pal computations performed,
// used by the instrumentation in Table VII-style accounting and the
// estimator ablations.
func (in *Instance) PalEvals() int {
	return int(in.palEvals.Load())
}

// NumRealizations returns the number of distinct realization rows the
// engine iterates — the materialized source size after weight-merging
// deduplication.
func (in *Instance) NumRealizations() int { return len(in.ws) }
