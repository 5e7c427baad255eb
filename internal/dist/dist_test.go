package dist

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func testDists() map[string]Distribution {
	return map[string]Distribution{
		"point":             NewPoint(3),
		"empirical":         NewEmpirical([]int{1, 2, 2, 3, 5}),
		"gaussian":          NewGaussian(6, 2, 0.995),
		"gaussianHalfWidth": NewGaussianHalfWidth(6, 2, 5),
		"poisson":           NewPoisson(3, 0.999),
	}
}

func TestPMFSumsToOneOverSupport(t *testing.T) {
	for name, d := range testDists() {
		lo, hi := d.Support()
		if lo < 0 || hi < lo {
			t.Errorf("%s: support [%d, %d] malformed", name, lo, hi)
		}
		var sum float64
		for n := lo; n <= hi; n++ {
			p := d.PMF(n)
			if p < 0 || p > 1 {
				t.Errorf("%s: PMF(%d) = %v outside [0, 1]", name, n, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: PMF sums to %v over support, want 1", name, sum)
		}
		if d.PMF(lo-1) != 0 || d.PMF(hi+1) != 0 {
			t.Errorf("%s: PMF nonzero outside support", name)
		}
		// Support is tight: both ends carry mass.
		if d.PMF(lo) == 0 || d.PMF(hi) == 0 {
			t.Errorf("%s: support [%d, %d] not tight", name, lo, hi)
		}
	}
}

func TestMeanMatchesPMF(t *testing.T) {
	for name, d := range testDists() {
		lo, hi := d.Support()
		var want float64
		for n := lo; n <= hi; n++ {
			want += float64(n) * d.PMF(n)
		}
		if math.Abs(d.Mean()-want) > 1e-9 {
			t.Errorf("%s: Mean() = %v, PMF says %v", name, d.Mean(), want)
		}
	}
}

func TestPointAndEmpiricalExact(t *testing.T) {
	p := NewPoint(4)
	if lo, hi := p.Support(); lo != 4 || hi != 4 {
		t.Fatalf("point support [%d, %d]", lo, hi)
	}
	if p.PMF(4) != 1 || p.Mean() != 4 {
		t.Fatalf("point PMF(4) = %v, mean = %v", p.PMF(4), p.Mean())
	}
	if NewPoint(-2).Mean() != 0 {
		t.Fatal("negative point mass should clip to 0")
	}

	e := NewEmpirical([]int{2, 0, 1, 1})
	if e.Mean() != 1 {
		t.Fatalf("empirical mean = %v, want exactly 1", e.Mean())
	}
	if e.PMF(1) != 0.5 || e.PMF(0) != 0.25 || e.PMF(2) != 0.25 {
		t.Fatalf("empirical PMF = %v/%v/%v", e.PMF(0), e.PMF(1), e.PMF(2))
	}
}

func TestGaussianTruncation(t *testing.T) {
	// The fixed-half-width form pins the support of the paper's Syn A
	// types: mean 6, half-width 5 → [1, 11].
	d := NewGaussianHalfWidth(6, 2, 5)
	if lo, hi := d.Support(); lo != 1 || hi != 11 {
		t.Fatalf("half-width support [%d, %d], want [1, 11]", lo, hi)
	}
	// Symmetric support around the mean keeps the discretized mean there.
	if math.Abs(d.Mean()-6) > 1e-9 {
		t.Fatalf("half-width mean = %v, want 6", d.Mean())
	}
	// A low mean clips at zero rather than going negative.
	lo, _ := NewGaussian(1, 3, 0.995).Support()
	if lo != 0 {
		t.Fatalf("clipped gaussian lo = %d, want 0", lo)
	}
	// Zero std degenerates to the point mass.
	if d := NewGaussian(5.4, 0, 0.995); d.PMF(5) != 1 {
		t.Fatal("zero-std gaussian should be a point mass at round(mean)")
	}
	// Higher coverage keeps a superset of the support.
	lo99, hi99 := NewGaussian(20, 3, 0.99).Support()
	lo999, hi999 := NewGaussian(20, 3, 0.9999).Support()
	if lo999 > lo99 || hi999 < hi99 {
		t.Fatalf("coverage 0.9999 support [%d, %d] not ⊇ 0.99 support [%d, %d]",
			lo999, hi999, lo99, hi99)
	}
}

func TestPoissonCoverage(t *testing.T) {
	const lambda, coverage = 3.0, 0.999
	d := NewPoisson(lambda, coverage)
	lo, hi := d.Support()
	if lo != 0 {
		t.Fatalf("poisson lo = %d, want 0", lo)
	}
	// The untruncated mass of the kept prefix reaches the coverage, and
	// the prefix is minimal (dropping the top bin falls below it).
	mass := func(upto int) float64 {
		p, cum := math.Exp(-lambda), 0.0
		for n := 0; n <= upto; n++ {
			cum += p
			p *= lambda / float64(n+1)
		}
		return cum
	}
	if mass(hi) < coverage {
		t.Fatalf("kept mass %v below coverage %v", mass(hi), coverage)
	}
	if mass(hi-1) >= coverage {
		t.Fatalf("support [0, %d] not minimal for coverage %v", hi, coverage)
	}
	if math.Abs(d.Mean()-lambda) > 0.05 {
		t.Fatalf("truncated poisson mean = %v, want ≈ %v", d.Mean(), lambda)
	}
}

func TestSampleDeterministicUnderSeed(t *testing.T) {
	for name, build := range map[string]func() Distribution{
		"empirical": func() Distribution { return NewEmpirical([]int{1, 2, 2, 3, 5}) },
		"gaussian":  func() Distribution { return NewGaussian(6, 2, 0.995) },
		"poisson":   func() Distribution { return NewPoisson(3, 0.999) },
	} {
		draw := func() []int {
			r := rand.New(rand.NewSource(42))
			d := build()
			out := make([]int, 64)
			for i := range out {
				out[i] = d.Sample(r)
			}
			return out
		}
		if a, b := draw(), draw(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different sequences\n%v\n%v", name, a, b)
		}
	}
}

func TestSampleFrequenciesMatchPMF(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, d := range testDists() {
		lo, hi := d.Support()
		const draws = 200_000
		freq := make([]int, hi-lo+1)
		for i := 0; i < draws; i++ {
			n := d.Sample(r)
			if n < lo || n > hi {
				t.Fatalf("%s: sampled %d outside support [%d, %d]", name, n, lo, hi)
			}
			freq[n-lo]++
		}
		for n := lo; n <= hi; n++ {
			got := float64(freq[n-lo]) / draws
			if math.Abs(got-d.PMF(n)) > 0.01 {
				t.Errorf("%s: freq(%d) = %v, PMF = %v", name, n, got, d.PMF(n))
			}
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: "gaussian", Mean: 6, Std: 2, Coverage: 0.995},
		{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 5},
		{Kind: "poisson", Lambda: 3, Coverage: 0.999},
		{Kind: "empirical", Counts: []int{4, 6, 5, 5}},
		{Kind: "point", N: 2},
		{Kind: "soliton", N: 40},
	}
	for _, s := range specs {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Kind, err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: unmarshal %s: %v", s.Kind, raw, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip %s changed spec: %+v → %+v", s.Kind, raw, s, back)
		}
		want, err := s.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", s.Kind, err)
		}
		got, err := back.Build()
		if err != nil {
			t.Fatalf("%s: rebuilt spec failed: %v", s.Kind, err)
		}
		wlo, whi := want.Support()
		glo, ghi := got.Support()
		if wlo != glo || whi != ghi {
			t.Fatalf("%s: support changed across round trip", s.Kind)
		}
		for n := wlo; n <= whi; n++ {
			if want.PMF(n) != got.PMF(n) {
				t.Fatalf("%s: PMF(%d) changed across round trip", s.Kind, n)
			}
		}
	}
}

func TestSoliton(t *testing.T) {
	// The ideal soliton over {1..n}: P[1] = 1/n, P[k] = 1/(k(k−1)).
	// These weights already sum to 1 (telescoping), so the table's
	// normalization must be the identity and the PMF exact.
	const n = 50
	d := NewSoliton(n)
	if lo, hi := d.Support(); lo != 1 || hi != n {
		t.Fatalf("soliton(%d) support [%d, %d], want [1, %d]", n, lo, hi, n)
	}
	if got := d.PMF(1); math.Abs(got-1.0/n) > 1e-12 {
		t.Fatalf("PMF(1) = %v, want 1/%d", got, n)
	}
	for _, k := range []int{2, 3, 10, n} {
		want := 1 / (float64(k) * float64(k-1))
		if got := d.PMF(k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PMF(%d) = %v, want %v", k, got, want)
		}
	}
	// Heavy tail: the upper half of the support still holds ~1/n-scale
	// mass (Σ_{k>n/2} 1/(k(k−1)) ≈ 2/n), unlike any truncated gaussian
	// at matching mean.
	var tail float64
	for k := n/2 + 1; k <= n; k++ {
		tail += d.PMF(k)
	}
	if tail < 1.0/n {
		t.Fatalf("upper-half tail mass %v, want ≥ %v", tail, 1.0/n)
	}
	// Mean of the ideal soliton is H_n (the harmonic number): 1/n·1 +
	// Σ_{k=2..n} k/(k(k−1)) = 1/n + Σ 1/(k−1).
	want := 1.0 / n
	for k := 2; k <= n; k++ {
		want += 1 / float64(k-1)
	}
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Fatalf("soliton(%d) mean = %v, want H-based %v", n, d.Mean(), want)
	}
	if p := NewSoliton(1); p.Mean() != 1 || p.PMF(1) != 1 {
		t.Fatalf("soliton(1) is not the point mass at 1")
	}
}

func TestPoissonLargeLambdaTerminates(t *testing.T) {
	// exp(-λ) underflows to 0 for λ ≳ 746; the log-space recursion must
	// still accumulate coverage and terminate with a sane support.
	d := NewPoisson(800, 0.999)
	lo, hi := d.Support()
	if lo < 500 || lo > 800 || hi < 800 || hi > 900 {
		t.Fatalf("poisson(800) support [%d, %d], want ≈ 800 ± a few σ", lo, hi)
	}
	var sum float64
	for n := lo; n <= hi; n++ {
		sum += d.PMF(n)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("poisson(800) PMF sums to %v", sum)
	}
	if math.Abs(d.Mean()-800) > 2 {
		t.Fatalf("poisson(800) mean = %v", d.Mean())
	}
}

func TestSpecBuildRejectsUnrepresentable(t *testing.T) {
	// Config mistakes must come back as errors from Build, never as
	// panics or unbounded allocations (DecodeJSON relies on this).
	bad := []Spec{
		{Kind: "gaussian", Mean: -60, Std: 1, Coverage: 0.995},  // clipped support has no mass
		{Kind: "gaussian", Mean: 0, Std: 1e17, Coverage: 0.995}, // support beyond the bin cap
		{Kind: "gaussian", Mean: 1e18, Std: 1, Coverage: 0.995}, // mean beyond the count cap
		{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 1 << 30}, // half-width beyond the bin cap
		{Kind: "poisson", Lambda: 1e9, Coverage: 0.999},         // lambda beyond the bin cap
		{Kind: "empirical", Counts: []int{0, 2_000_000_000}},    // count range beyond the bin cap
		// Sizes whose bin count overflows int: the checks once wrapped
		// around, passed, and make panicked.
		{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: 1 << 62},
		{Kind: "empirical", Counts: []int{0, math.MaxInt}},
	}
	for _, s := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Build panicked on %+v: %v", s, r)
				}
			}()
			if _, err := s.Build(); err == nil {
				t.Errorf("Build accepted unrepresentable spec %+v", s)
			}
		}()
	}
}

func TestSpecBuildErrors(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "weird"},
		{Kind: "gaussian", Mean: 6, Std: -1, Coverage: 0.9},
		{Kind: "gaussian", Mean: 6, Std: 2}, // no coverage or half-width
		{Kind: "gaussian", Mean: 6, Std: 2, Coverage: 1},
		{Kind: "gaussian", Mean: 6, Std: 2, HalfWidth: -1},
		{Kind: "poisson", Lambda: -1, Coverage: 0.9},
		{Kind: "poisson", Lambda: 3},
		{Kind: "empirical"},
		{Kind: "empirical", Counts: []int{1, -2}},
		{Kind: "point", N: -1},
		{Kind: "soliton"},
		{Kind: "soliton", N: -3},
		{Kind: "soliton", N: maxSupportBins + 1},
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("Build accepted invalid spec %+v", s)
		}
	}
}

func TestStreamEstimatorWindowEviction(t *testing.T) {
	if _, err := NewStreamEstimator(0); err == nil {
		t.Fatal("window 0 accepted")
	}
	e, err := NewStreamEstimator(3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 || e.Mean() != 0 {
		t.Fatal("fresh estimator not empty")
	}
	if _, err := e.SnapshotGaussian(0.995); err == nil {
		t.Fatal("snapshot of empty window accepted")
	}

	e.Observe(1)
	e.Observe(2)
	e.Observe(3)
	if e.Len() != 3 || e.Mean() != 2 {
		t.Fatalf("full window: len %d mean %v, want 3 and 2", e.Len(), e.Mean())
	}
	// The fourth observation evicts the oldest: window is {2, 3, 10}.
	e.Observe(10)
	if e.Len() != 3 || e.Mean() != 5 {
		t.Fatalf("after eviction: len %d mean %v, want 3 and 5", e.Len(), e.Mean())
	}
	// Fill entirely with one value: snapshot degenerates to that point.
	for i := 0; i < 3; i++ {
		e.Observe(7)
	}
	d, err := e.SnapshotGaussian(0.995)
	if err != nil {
		t.Fatal(err)
	}
	if d.PMF(7) != 1 {
		t.Fatalf("constant window snapshot PMF(7) = %v, want 1", d.PMF(7))
	}
	if _, err := e.SnapshotGaussian(1.5); err == nil {
		t.Fatal("invalid coverage accepted")
	}
}

func TestStreamEstimatorSnapshotTracksWindow(t *testing.T) {
	e, err := NewStreamEstimator(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 7, 6, 6} {
		e.Observe(n)
	}
	d, err := e.SnapshotGaussian(0.995)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-6) > 0.2 {
		t.Fatalf("snapshot mean = %v, want ≈ 6", d.Mean())
	}
}

// FuzzSpecBuild checks that Build never panics on a decoded spec, and
// that an accepted spec round-trips through JSON to the same table and
// has a PMF summing to 1 over its support.
func FuzzSpecBuild(f *testing.F) {
	for _, s := range []string{
		`{"kind":"gaussian","mean":6,"std":2,"coverage":0.995}`,
		`{"kind":"gaussian","mean":6,"std":2,"half_width":5}`,
		`{"kind":"gaussian","mean":6,"std":2,"half_width":4611686018427387904}`,
		`{"kind":"poisson","lambda":3,"coverage":0.999}`,
		`{"kind":"empirical","counts":[4,6,5,5]}`,
		`{"kind":"empirical","counts":[0,9223372036854775807]}`,
		`{"kind":"point","n":2}`,
		`{"kind":"soliton","n":40}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var s Spec
		if json.Unmarshal([]byte(in), &s) != nil {
			return
		}
		d, err := s.Build()
		if err != nil {
			return
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		d2, err := back.Build()
		if err != nil {
			t.Fatalf("round-tripped spec %s rejected: %v", raw, err)
		}
		lo, hi := d.Support()
		if lo2, hi2 := d2.Support(); lo2 != lo || hi2 != hi {
			t.Fatalf("%s: support [%d, %d] round-trips to [%d, %d]", raw, lo, hi, lo2, hi2)
		}
		var sum float64
		for n := lo; n <= hi; n++ {
			p := d.PMF(n)
			if math.Float64bits(p) != math.Float64bits(d2.PMF(n)) {
				t.Fatalf("%s: PMF(%d) = %v round-trips to %v", raw, n, p, d2.PMF(n))
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: PMF sums to %v over [%d, %d]", raw, sum, lo, hi)
		}
	})
}
