package dist

import "fmt"

// Spec is the serializable description of a count distribution, the
// wire form used by the JSON game format ("kind" selects the
// constructor, the remaining fields are that kind's parameters). It
// marshals with encoding/json directly; unused parameter fields are
// omitted, so a Spec → JSON → Spec round trip is lossless.
//
//	{"kind": "gaussian",  "mean": 6, "std": 2, "coverage": 0.995}
//	{"kind": "gaussian",  "mean": 6, "std": 2, "half_width": 5}
//	{"kind": "poisson",   "lambda": 3, "coverage": 0.999}
//	{"kind": "empirical", "counts": [4, 6, 5, 5]}
//	{"kind": "point",     "n": 2}
//	{"kind": "soliton",   "n": 40}
type Spec struct {
	// Kind is one of "gaussian", "poisson", "empirical", "point",
	// "soliton".
	Kind string `json:"kind"`
	// Mean and Std parameterize a gaussian.
	Mean float64 `json:"mean,omitempty"`
	Std  float64 `json:"std,omitempty"`
	// Coverage truncates a gaussian (two-sided) or poisson (upper
	// tail). For a gaussian, HalfWidth > 0 overrides it with a fixed
	// support half-width, the paper's Table II parameterization.
	Coverage  float64 `json:"coverage,omitempty"`
	HalfWidth int     `json:"half_width,omitempty"`
	// Lambda is the poisson rate.
	Lambda float64 `json:"lambda,omitempty"`
	// Counts are the empirical observations.
	Counts []int `json:"counts,omitempty"`
	// N is the point-mass location (kind "point") or the support size
	// (kind "soliton").
	N int `json:"n,omitempty"`
}

// Build validates the spec and constructs the distribution it
// describes.
func (s Spec) Build() (Distribution, error) {
	switch s.Kind {
	case "gaussian":
		if s.HalfWidth != 0 {
			return newGaussianHalfWidth(s.Mean, s.Std, s.HalfWidth)
		}
		return newGaussian(s.Mean, s.Std, s.Coverage)
	case "poisson":
		return newPoisson(s.Lambda, s.Coverage)
	case "empirical":
		return newEmpirical(s.Counts)
	case "point":
		if s.N < 0 {
			return nil, fmt.Errorf("dist: point mass n %d must be ≥ 0", s.N)
		}
		return newPoint(s.N)
	case "soliton":
		return newSoliton(s.N)
	case "":
		return nil, fmt.Errorf("dist: spec is missing a kind")
	default:
		return nil, fmt.Errorf("dist: unknown distribution kind %q", s.Kind)
	}
}
