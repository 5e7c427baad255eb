package dist

// Hooks for the external reference tests (reference_test.go), which
// import packages that import dist and so cannot live in package dist.

// BisectQuantile is Φ⁻¹ by bisection, with no memo.
var BisectQuantile = bisectQuantile

// NormalizeTable builds a distribution from raw bin weights the way
// every constructor does.
func NormalizeTable(lo int, weights []float64) Distribution { return newTable(lo, weights) }

// TableBits returns the dense table behind d: its first count, PMF,
// CDF and mean.
func TableBits(d Distribution) (lo int, pmf, cdf []float64, mean float64) {
	t := d.(*table)
	return t.lo, t.pmf, t.cdf, t.mean
}
