package game

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auditgame/internal/sample"
)

// synAEngineInstance builds a Syn A instance with the given worker
// setting; the engine guarantees bitwise-identical results at every
// setting, which these tests pin down.
func synAEngineInstance(t *testing.T, budget float64, workers int) *Instance {
	t.Helper()
	g := SynA()
	src, err := sample.NewEnumerator(g.Dists(), sample.DefaultEnumerationLimit)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(g, budget, src)
	if err != nil {
		t.Fatal(err)
	}
	in.Workers = workers
	return in
}

func bitsEqual(a, b []float64) bool {
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

// engineCases enumerates a mix of full and partial orderings with
// assorted thresholds — enough shapes to exercise caps, partial budgets,
// and the early-exit path.
func engineCases() ([]Ordering, []Thresholds) {
	os := AllOrderings(4)
	os = append(os, Ordering{2}, Ordering{3, 1}, Ordering{0, 2, 1})
	bs := []Thresholds{
		{3, 3, 3, 3},
		{2, 4, 1, 5},
		{0, 0, 7, 7},
		{11, 9, 7, 7},
		{1, 0, 0, 1},
	}
	return os, bs
}

// TestPalBatchMatchesPal: the batched kernel must agree with one-at-a-time
// evaluation to the bit, computed fresh on separate instances.
func TestPalBatchMatchesPal(t *testing.T) {
	os, bs := engineCases()
	one := synAEngineInstance(t, 10, 1)
	batched := synAEngineInstance(t, 10, 1)
	for _, b := range bs {
		got := batched.PalBatch(os, b)
		for k, o := range os {
			want := one.Pal(o, b)
			if !bitsEqual(got[k], want) {
				t.Fatalf("b=%v o=%v: batch %v != single %v", b, o, got[k], want)
			}
		}
	}
}

// TestPalParallelBitwiseIdentical: realization sharding across workers
// must not change a single bit versus the serial path, for Pal, PalBatch
// and Loss.
func TestPalParallelBitwiseIdentical(t *testing.T) {
	os, bs := engineCases()
	serial := synAEngineInstance(t, 10, 1)
	parallel := synAEngineInstance(t, 10, 8)
	for _, b := range bs {
		sp := serial.PalBatch(os, b)
		pp := parallel.PalBatch(os, b)
		for k := range os {
			if !bitsEqual(sp[k], pp[k]) {
				t.Fatalf("b=%v o=%v: serial %v != parallel %v", b, os[k], sp[k], pp[k])
			}
		}
	}
	full := AllOrderings(4)
	po := make([]float64, len(full))
	for i := range po {
		po[i] = 1 / float64(len(full))
	}
	for _, b := range bs {
		ls := serial.Loss(full, po, b)
		lp := parallel.Loss(full, po, b)
		if ls != lp {
			t.Fatalf("b=%v: serial loss %v != parallel loss %v", b, ls, lp)
		}
	}
}

// TestPalConcurrentHammer drives one shared instance from many goroutines
// mixing Pal, PalBatch and Loss, and checks every result bitwise against
// a serial reference instance. Run under -race this also proves the
// sharded cache and interners are data-race free.
func TestPalConcurrentHammer(t *testing.T) {
	os, bs := engineCases()
	ref := synAEngineInstance(t, 10, 1)
	shared := synAEngineInstance(t, 10, 0)

	full := AllOrderings(4)
	po := make([]float64, len(full))
	for i := range po {
		po[i] = 1 / float64(len(full))
	}
	wantPal := make(map[int][][]float64)
	wantLoss := make([]float64, len(bs))
	for bi, b := range bs {
		wantPal[bi] = ref.PalBatch(os, b)
		wantLoss[bi] = ref.Loss(full, po, b)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 40; iter++ {
				bi := r.Intn(len(bs))
				switch iter % 3 {
				case 0:
					k := r.Intn(len(os))
					if got := shared.Pal(os[k], bs[bi]); !bitsEqual(got, wantPal[bi][k]) {
						t.Errorf("goroutine %d: Pal(%v,%v) = %v, want %v", g, os[k], bs[bi], got, wantPal[bi][k])
						return
					}
				case 1:
					got := shared.PalBatch(os, bs[bi])
					for k := range os {
						if !bitsEqual(got[k], wantPal[bi][k]) {
							t.Errorf("goroutine %d: PalBatch mismatch at o=%v b=%v", g, os[k], bs[bi])
							return
						}
					}
				case 2:
					if got := shared.Loss(full, po, bs[bi]); got != wantLoss[bi] {
						t.Errorf("goroutine %d: Loss(b=%v) = %v, want %v", g, bs[bi], got, wantLoss[bi])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPalCacheHitNoAlloc pins the zero-allocation contract of the cache
// hit path: interned keys are hashed on the stack, and the cached slice
// is returned as-is.
func TestPalCacheHitNoAlloc(t *testing.T) {
	in := synAEngineInstance(t, 10, 1)
	o := Ordering{0, 1, 2, 3}
	b := Thresholds{3, 3, 3, 3}
	in.Pal(o, b) // populate
	allocs := testing.AllocsPerRun(100, func() {
		in.Pal(o, b)
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Pal allocates %v objects per call, want 0", allocs)
	}
}

// weightedSource is a hand-built Source with explicit (possibly
// duplicated) realizations for the dedup tests.
type weightedSource struct {
	rows []sample.Realization
	ws   []float64
}

func (s *weightedSource) Each(fn func(z sample.Realization, w float64)) {
	for i, z := range s.rows {
		fn(z, s.ws[i])
	}
}

func (s *weightedSource) Size() int { return len(s.rows) }

// TestRealizationDedup: duplicate rows must merge their weights at
// NewInstance time, and Pal over the merged matrix must match the
// expectation computed from the duplicated source by hand.
func TestRealizationDedup(t *testing.T) {
	g := tinyGame()
	// Powers of two keep the merged weights bitwise-exact, so the pal
	// comparison below can demand bit equality rather than a tolerance.
	dup := &weightedSource{
		rows: []sample.Realization{{2, 2}, {1, 3}, {2, 2}, {2, 2}},
		ws:   []float64{0.25, 0.5, 0.125, 0.125},
	}
	in, err := NewInstance(g, 3, dup)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumRealizations() != 2 {
		t.Fatalf("NumRealizations = %d, want 2 after dedup", in.NumRealizations())
	}
	merged := &weightedSource{
		rows: []sample.Realization{{2, 2}, {1, 3}},
		ws:   []float64{0.5, 0.5},
	}
	in2, err := NewInstance(g, 3, merged)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range [][]int{{0, 1}, {1, 0}, {1}} {
		got := in.Pal(Ordering(o), Thresholds{2, 2})
		want := in2.Pal(Ordering(o), Thresholds{2, 2})
		if !bitsEqual(got, want) {
			t.Fatalf("o=%v: deduped pal %v != merged-source pal %v", o, got, want)
		}
	}
}

// TestPalEvalCounting: batch evaluation must count one eval per distinct
// uncached ordering, and cache hits none — the Table VII accounting
// contract.
func TestPalEvalCounting(t *testing.T) {
	in := synAEngineInstance(t, 10, 1)
	os := AllOrderings(4)
	b := Thresholds{3, 3, 3, 3}
	in.PalBatch(os, b)
	if got := in.PalEvals(); got != len(os) {
		t.Fatalf("PalEvals = %d after batch of %d, want %d", got, len(os), len(os))
	}
	in.PalBatch(os, b)
	in.Pal(os[0], b)
	if got := in.PalEvals(); got != len(os) {
		t.Fatalf("PalEvals = %d after cached re-evaluations, want %d", got, len(os))
	}
}

// TestRunUnitsPanicContained drives the worker pool's parallel path with
// one panicking unit: the panic must be re-raised on the calling
// goroutine, every other unit must still run, and no worker may outlive
// the call.
func TestRunUnitsPanicContained(t *testing.T) {
	in := synAEngineInstance(t, 10, 4)
	const nUnits, bad = 64, 5
	if w := in.workerCount(nUnits, palParallelMinWork); w != 4 {
		t.Fatalf("pool sized to %d workers, want the parallel path at 4", w)
	}
	baseline := runtime.NumGoroutine()
	boom := errors.New("boom")
	var ran [nUnits]atomic.Bool
	var got any
	func() {
		defer func() { got = recover() }()
		in.runUnits(nUnits, palParallelMinWork, 0, func(u int, _ *trieScratch) {
			if u == bad {
				panic(boom)
			}
			ran[u].Store(true)
		})
	}()
	if got != boom {
		t.Fatalf("recovered %v on the caller, want the unit's panic value", got)
	}
	for u := range ran {
		if u != bad && !ran[u].Load() {
			t.Fatalf("unit %d never ran after unit %d panicked", u, bad)
		}
	}
	// Workers have called wg.Done before runUnits re-raises; give them
	// a moment to finish exiting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
