// Package dist provides the discrete alert-count distributions that
// parameterize the audit game: the per-type benign count Z_t of §II-A.
// Every distribution is materialized at construction into a dense
// PMF/CDF table over a finite integer support, so the two operations on
// the solver hot path are cheap: PMF is a single slice index (the exact
// enumerator in internal/sample calls it for every point of every
// type's support on every joint realization) and Sample is one binary
// search over the CDF. The modelling trade-offs behind the truncation
// and discretization choices are recorded in DESIGN.md.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
)

// maxSupportBins caps the dense-table width so a malformed model (a
// huge std, an astronomical λ, a wild empirical outlier) surfaces as a
// constructor error instead of an unbounded allocation. 2²² bins is a
// 33 MB PMF+CDF table, far beyond any plausible alert workload.
const maxSupportBins = 1 << 22

// maxSupportHi caps count values themselves; per-period alert counts
// beyond 2³¹ indicate a broken model, not a big deployment. Every kind
// enforces it, so no support ends near MaxInt and a `for n := lo;
// n <= hi; n++` walk over one (the exact enumerator, the drift
// distances) always terminates.
const maxSupportHi = 1 << 31

// Distribution is a discrete probability distribution over non-negative
// integer alert counts with finite (possibly truncated) support.
type Distribution interface {
	// Sample draws one count using the supplied source. Distributions
	// hold no random state of their own, so a shared seeded *rand.Rand
	// gives deterministic, reproducible draws.
	Sample(r *rand.Rand) int
	// Support returns the inclusive range [lo, hi] outside which PMF
	// is identically zero.
	Support() (lo, hi int)
	// PMF returns P[Z = n]. It is defined for every n, returning 0
	// outside the support, and is O(1).
	PMF(n int) float64
	// Mean returns E[Z] of the (truncated, renormalized) distribution.
	Mean() float64
}

// table is the shared backing for every distribution kind: a dense PMF
// over [lo, lo+len(pmf)-1] with its running CDF and precomputed mean.
type table struct {
	lo   int
	pmf  []float64
	cdf  []float64
	mean float64
}

// newTable normalizes weights into a table anchored at lo. Edge bins
// whose relative weight is numerical noise (≤ 1e-15 of the total) are
// trimmed so Support stays tight — without this, a large-λ Poisson's
// subnormal lower tail would stretch the support by hundreds of
// zero-information bins and blow up exact joint enumeration. It panics
// if no weight is positive — every constructor guarantees mass.
func newTable(lo int, weights []float64) *table {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("dist: invalid probability weight")
		}
		total += w
	}
	if total == 0 {
		panic("dist: distribution has no probability mass")
	}
	eps := total * 1e-15
	start, end := 0, len(weights)
	for start < end && weights[start] <= eps {
		start++
	}
	for end > start && weights[end-1] <= eps {
		end--
	}
	lo += start
	weights = weights[start:end]

	total = 0
	for _, w := range weights {
		total += w
	}
	t := &table{
		lo:  lo,
		pmf: make([]float64, len(weights)),
		cdf: make([]float64, len(weights)),
	}
	var cum float64
	for i, w := range weights {
		p := w / total
		t.pmf[i] = p
		cum += p
		t.cdf[i] = cum
		t.mean += float64(lo+i) * p
	}
	t.cdf[len(t.cdf)-1] = 1 // guard against rounding in the last bin
	return t
}

// Sample implements Distribution by inverse-CDF lookup: one uniform
// draw, one O(log n) binary search over the precomputed CDF.
func (t *table) Sample(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(t.cdf, u)
	if i == len(t.cdf) {
		i--
	}
	return t.lo + i
}

// Support implements Distribution.
func (t *table) Support() (int, int) { return t.lo, t.lo + len(t.pmf) - 1 }

// PMF implements Distribution with a single bounds-checked slice index.
func (t *table) PMF(n int) float64 {
	i := n - t.lo
	if i < 0 || i >= len(t.pmf) {
		return 0
	}
	return t.pmf[i]
}

// Mean implements Distribution.
func (t *table) Mean() float64 { return t.mean }

// must unwraps an internal builder result for the programmatic
// constructors, which follow the stdlib convention of panicking on
// programmer error; Spec.Build uses the error-returning builders
// directly so config mistakes surface as errors.
func must(d Distribution, err error) Distribution {
	if err != nil {
		panic(err)
	}
	return d
}

// NewPoint returns the point mass at n (a deterministic daily count).
// Negative n is clipped to 0, since counts are non-negative. It panics
// above the 2³¹ count cap: a count that large is a broken model, and
// clamping it would hide the mistake behind a different one.
func NewPoint(n int) Distribution { return must(newPoint(n)) }

func newPoint(n int) (Distribution, error) {
	if n > maxSupportHi {
		return nil, fmt.Errorf("dist: point mass n %d exceeds the %d count cap", n, maxSupportHi)
	}
	if n < 0 {
		n = 0
	}
	return newTable(n, []float64{1}), nil
}

// NewEmpirical fits the empirical distribution of the observed
// per-period counts, e.g. daily alert totals from an audit log — the
// F_t(n) estimation step of paper §II-A. It panics on an empty slice or
// a negative count.
func NewEmpirical(counts []int) Distribution { return must(newEmpirical(counts)) }

func newEmpirical(counts []int) (Distribution, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("dist: empirical distribution needs at least one observation")
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dist: negative count observation %d", c)
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi > maxSupportHi {
		return nil, fmt.Errorf("dist: empirical count %d exceeds the %d count cap", hi, maxSupportHi)
	}
	if hi-lo >= maxSupportBins {
		return nil, fmt.Errorf("dist: empirical count range [%d, %d] exceeds %d bins", lo, hi, maxSupportBins)
	}
	weights := make([]float64, hi-lo+1)
	for _, c := range counts {
		weights[c-lo]++
	}
	return newTable(lo, weights), nil
}

// NewGaussian discretizes N(mean, std²) to integer counts: each integer
// n receives the density mass of [n−½, n+½]. The support is truncated
// to the central two-sided coverage interval (the paper uses 0.995),
// clipped at zero, and renormalized. It panics unless std ≥ 0,
// coverage ∈ (0, 1), and the truncated support is non-degenerate. A
// zero std yields the point mass at round(mean).
func NewGaussian(mean, std, coverage float64) Distribution {
	return must(newGaussian(mean, std, coverage))
}

func newGaussian(mean, std, coverage float64) (Distribution, error) {
	if err := checkGaussian(mean, std); err != nil {
		return nil, err
	}
	if !(coverage > 0 && coverage < 1) {
		return nil, fmt.Errorf("dist: gaussian coverage %v must be in (0, 1)", coverage)
	}
	if std == 0 {
		return NewPoint(int(math.Round(mean))), nil
	}
	half := normQuantile((1+coverage)/2) * std
	lo := math.Floor(mean - half)
	hi := math.Ceil(mean + half)
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	if hi > maxSupportHi {
		return nil, fmt.Errorf("dist: gaussian support reaches %g, beyond the %d count cap", hi, maxSupportHi)
	}
	if hi-lo+1 > maxSupportBins {
		return nil, fmt.Errorf("dist: gaussian support [%g, %g] exceeds %d bins", lo, hi, maxSupportBins)
	}
	return gaussianTable(mean, std, int(lo), int(hi))
}

// NewGaussianHalfWidth discretizes N(mean, std²) over the fixed support
// [round(mean)−halfWidth, round(mean)+halfWidth], clipped at zero and
// renormalized. This is the parameterization of the paper's controlled
// dataset (Table II gives each type's mean, std, and support
// half-width). It panics unless std ≥ 0, halfWidth ≥ 0, and the
// clipped support is non-degenerate.
func NewGaussianHalfWidth(mean, std float64, halfWidth int) Distribution {
	return must(newGaussianHalfWidth(mean, std, halfWidth))
}

func newGaussianHalfWidth(mean, std float64, halfWidth int) (Distribution, error) {
	if err := checkGaussian(mean, std); err != nil {
		return nil, err
	}
	if halfWidth < 0 {
		return nil, fmt.Errorf("dist: gaussian half-width %d must be non-negative", halfWidth)
	}
	if halfWidth > (maxSupportBins-1)/2 { // 2·halfWidth+1 would overflow for huge halfWidth
		return nil, fmt.Errorf("dist: gaussian half-width %d exceeds %d bins", halfWidth, maxSupportBins)
	}
	center := int(math.Round(mean))
	if std == 0 {
		return NewPoint(center), nil
	}
	lo, hi := center-halfWidth, center+halfWidth
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	if hi > maxSupportHi {
		return nil, fmt.Errorf("dist: gaussian support reaches %d, beyond the %d count cap", hi, maxSupportHi)
	}
	return gaussianTable(mean, std, lo, hi)
}

func checkGaussian(mean, std float64) error {
	if math.IsNaN(mean) || math.Abs(mean) > maxSupportHi {
		return fmt.Errorf("dist: gaussian mean %v must be finite and within ±%d", mean, maxSupportHi)
	}
	if std < 0 || math.IsNaN(std) || math.IsInf(std, 0) {
		return fmt.Errorf("dist: gaussian std %v must be non-negative and finite", std)
	}
	return nil
}

// gaussianTable bins N(mean, std²) over the integers of [lo, hi];
// newTable renormalizes the truncated mass. A support so far into the
// tail that every bin underflows to zero is reported as an error
// rather than a distribution.
//
// Φ is evaluated once per bin edge: bin n's upper edge n+0.5 and bin
// n+1's lower edge (n+1)−0.5 are the same double for every integer
// |n| < 2⁵², and the count cap keeps 0 ≤ n ≤ 2³¹ here, so carrying the
// upper edge's Φ into the next bin gives the weights of two Φ calls per
// bin bit for bit.
func gaussianTable(mean, std float64, lo, hi int) (Distribution, error) {
	weights := make([]float64, hi-lo+1)
	var total float64
	lower := normCDF((float64(lo) - 0.5 - mean) / std)
	for i := range weights {
		upper := normCDF((float64(lo+i) + 0.5 - mean) / std)
		weights[i] = upper - lower
		lower = upper
		total += weights[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("dist: gaussian(mean %g, std %g) has no probability mass on [%d, %d]",
			mean, std, lo, hi)
	}
	return newTable(lo, weights), nil
}

// NewPoisson returns Poisson(λ) truncated to the smallest prefix
// [0, N] whose probability reaches the given coverage, renormalized.
// It panics unless λ ≥ 0, finite and within the support cap, and
// coverage ∈ (0, 1). λ = 0 is the point mass at zero.
func NewPoisson(lambda, coverage float64) Distribution { return must(newPoisson(lambda, coverage)) }

func newPoisson(lambda, coverage float64) (Distribution, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("dist: poisson lambda %v must be non-negative and finite", lambda)
	}
	if !(coverage > 0 && coverage < 1) {
		return nil, fmt.Errorf("dist: poisson coverage %v must be in (0, 1)", coverage)
	}
	if lambda == 0 {
		return NewPoint(0), nil
	}
	if lambda > maxSupportBins {
		return nil, fmt.Errorf("dist: poisson lambda %g exceeds the %d bin support cap", lambda, maxSupportBins)
	}
	// The PMF recursion runs in log space: for large λ the leading
	// terms underflow to zero in linear space, which would stall the
	// coverage accumulation forever. Underflowed bins contribute
	// (correctly) negligible weight; mass only accumulates near the
	// mode, where exp(logP) is well scaled.
	logLam := math.Log(lambda)
	logP := -lambda // log P[Z = 0]
	var weights []float64
	cum := 0.0
	for n := 0; ; n++ {
		p := math.Exp(logP)
		weights = append(weights, p)
		cum += p
		if cum >= coverage {
			break
		}
		if n+1 > maxSupportBins {
			return nil, fmt.Errorf("dist: poisson(lambda %g) support exceeds %d bins at coverage %v",
				lambda, maxSupportBins, coverage)
		}
		logP += logLam - math.Log(float64(n+1))
	}
	return newTable(0, weights), nil
}

// NewSoliton returns the ideal soliton distribution over {1, …, n}:
// P[Z = 1] = 1/n and P[Z = k] = 1/(k(k−1)) for k ≥ 2. Its ~k⁻² tail
// makes it the heavy-tailed stress model for alert counts — most
// periods are quiet but the support stretches to n with non-negligible
// mass, the regime where a mean/variance drift detector and a
// truncated-Gaussian count model are both at their weakest. It panics
// unless 1 ≤ n ≤ the support cap.
func NewSoliton(n int) Distribution { return must(newSoliton(n)) }

func newSoliton(n int) (Distribution, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: soliton support size %d must be ≥ 1", n)
	}
	if n > maxSupportBins {
		return nil, fmt.Errorf("dist: soliton support size %d exceeds %d bins", n, maxSupportBins)
	}
	weights := make([]float64, n)
	weights[0] = 1 / float64(n)
	for k := 2; k <= n; k++ {
		weights[k-1] = 1 / (float64(k) * float64(k-1))
	}
	return newTable(1, weights), nil
}

// normCDF is the standard normal CDF Φ(x).
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// quantileMemo is normQuantile's last argument and result.
type quantileMemo struct{ p, q float64 }

// lastQuantile remembers one Φ⁻¹ evaluation. Every gaussian build asks
// for Φ⁻¹((1+coverage)/2), and in practice the coverage is one
// constant (the paper's 0.995): the drift tracker's escalated checks,
// refit models and the simulator's true models all build with it. One
// entry serves that, and stays bounded when specs arrive over JSON
// with coverages the client chose, which a map keyed by p would not.
var lastQuantile atomic.Pointer[quantileMemo]

// normQuantile returns Φ⁻¹(p), bit for bit bisectQuantile(p), from
// lastQuantile when p repeats the last call's argument.
func normQuantile(p float64) float64 {
	if m := lastQuantile.Load(); m != nil && m.p == p {
		return m.q
	}
	q := bisectQuantile(p)
	lastQuantile.Store(&quantileMemo{p, q})
	return q
}

// bisectQuantile inverts Φ by bisection: robustness beats speed, and
// ~70 iterations reach full float64 precision on [−40, 40]. It runs on
// every gaussian build whose coverage differs from the previous one's.
func bisectQuantile(p float64) float64 {
	lo, hi := -40.0, 40.0
	for i := 0; i < 200 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if normCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
