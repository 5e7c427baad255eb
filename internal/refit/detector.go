package refit

import (
	"fmt"
	"math"

	"auditgame/internal/dist"
)

// TypeWindow is a detector's view of one alert type: the model the
// current policy was solved against and the sliding-window evidence
// gathered since.
type TypeWindow struct {
	// Installed is the count distribution the installed policy assumes
	// for this type; InstalledVar is its precomputed variance (the
	// Tracker computes it once per install, not once per check).
	Installed    dist.Distribution
	InstalledVar float64
	// Mean, Std, N are the window's sample statistics.
	Mean float64
	Std  float64
	N    int
	// Snapshot freezes the window into a distribution on demand.
	// Detectors call it only when the cheap statistics cannot rule
	// drift out, so the common stationary check never builds a table.
	Snapshot func() (dist.Distribution, error)
}

// TypeScore is one type's drift evidence from a detector run. TV and KL
// are −1 when the fast path ruled the type out before computing them.
type TypeScore struct {
	// Z is the mean-shift score: |window mean − model mean| in units of
	// the model's standard error over the window size.
	Z float64 `json:"z"`
	// VarRatio is (window variance)/(model variance), both floored.
	VarRatio float64 `json:"var_ratio"`
	// TV is the total-variation distance between the model PMF and the
	// window snapshot PMF, in [0, 1].
	TV float64 `json:"tv"`
	// KL is the symmetrized (Jeffreys) KL divergence between the same
	// pair, ε-smoothed over the union support.
	KL float64 `json:"kl"`
}

// Verdict is a detector's decision with its per-type evidence.
type Verdict struct {
	Drift bool `json:"drift"`
	// Reason says which stage decided and on which type, e.g.
	// "tv 0.41 ≥ 0.20 on type 2" or "fast path: all types stationary".
	Reason string      `json:"reason"`
	Scores []TypeScore `json:"scores,omitempty"`
}

// Detector decides whether the windowed workload has drifted from the
// installed model. Implementations must be safe for concurrent use; the
// Tracker serializes calls, but a detector may be shared by trackers.
type Detector interface {
	// Name labels the detector in state reports.
	Name() string
	// Detect scores every type and returns the verdict. It is only
	// called once every window is non-empty and a model is installed.
	Detect(types []TypeWindow) (Verdict, error)
}

// DistanceDetector is the default two-stage drift detector:
//
//  1. Fast path — a mean/variance test per type. The window mean is
//     compared against the installed model's mean in standard-error
//     units (Z), and the variance ratio against [1/VarRatio, VarRatio].
//     A stationary workload almost always stops here, costing one pass
//     over each window and no table construction.
//  2. Distance — only for types the fast path escalates, the window is
//     frozen into a snapshot distribution and compared against the
//     installed model's PMF: total-variation distance (the decision
//     statistic) and symmetrized KL (an optional second trigger that is
//     more sensitive to tail mismatches).
//
// Drift is declared when any type's TV reaches TVThreshold, or — when
// KLThreshold > 0 — its symmetrized KL reaches KLThreshold.
// Zero-valued fields fall back to the defaults at detection time, so a
// partially-configured detector (say, only TVThreshold set) behaves
// sanely rather than escalating or firing on everything.
type DistanceDetector struct {
	// ZThreshold escalates a type to the distance stage when its mean
	// shift reaches this many standard errors. Zero means the default 3.
	ZThreshold float64
	// VarRatio escalates when the window/model variance ratio leaves
	// [1/VarRatio, VarRatio]. Zero means the default 4.
	VarRatio float64
	// TVThreshold declares drift at this total-variation distance.
	// Zero means the default 0.2.
	TVThreshold float64
	// KLThreshold, when positive, also declares drift at this
	// symmetrized KL divergence. Zero disables the KL trigger.
	KLThreshold float64
}

// NewDistanceDetector returns a DistanceDetector with the default
// thresholds.
func NewDistanceDetector() *DistanceDetector {
	return &DistanceDetector{ZThreshold: 3, VarRatio: 4, TVThreshold: 0.2}
}

// varFloor keeps the z and variance-ratio statistics finite when the
// installed model (or the window) is a point mass: a point-mass model
// treats any appreciable mean shift as drift without dividing by zero.
// ¼ is the variance of a count that wobbles between two adjacent
// integers — the resolution floor of integer count data.
const varFloor = 0.25

// Name implements Detector.
func (d *DistanceDetector) Name() string { return "distance" }

// resolved returns a copy with zero thresholds replaced by defaults.
func (d *DistanceDetector) resolved() DistanceDetector {
	r := *d
	if r.ZThreshold == 0 {
		r.ZThreshold = 3
	}
	if r.VarRatio == 0 {
		r.VarRatio = 4
	}
	if r.TVThreshold == 0 {
		r.TVThreshold = 0.2
	}
	return r
}

// Detect implements Detector.
func (dd *DistanceDetector) Detect(types []TypeWindow) (Verdict, error) {
	d := dd.resolved()
	v := Verdict{Scores: make([]TypeScore, len(types))}
	worst := -1 // type with the highest escalated distance
	for t := range types {
		tw := &types[t]
		s := &v.Scores[t]
		s.TV, s.KL = -1, -1

		modelVar := math.Max(tw.InstalledVar, varFloor)
		n := math.Max(float64(tw.N), 1)
		s.Z = math.Abs(tw.Mean-tw.Installed.Mean()) / math.Sqrt(modelVar/n)
		s.VarRatio = (tw.Std*tw.Std + varFloor) / (tw.InstalledVar + varFloor)

		escalate := s.Z >= d.ZThreshold ||
			s.VarRatio >= d.VarRatio || s.VarRatio <= 1/d.VarRatio
		if !escalate {
			continue
		}
		snap, err := tw.Snapshot()
		if err != nil {
			return Verdict{}, fmt.Errorf("refit: snapshot of type %d: %w", t, err)
		}
		s.TV = TotalVariation(tw.Installed, snap)
		s.KL = SymmetrizedKL(tw.Installed, snap)
		if s.TV >= d.TVThreshold {
			v.Drift = true
			if worst < 0 || s.TV > v.Scores[worst].TV {
				worst = t
			}
		} else if d.KLThreshold > 0 && s.KL >= d.KLThreshold {
			v.Drift = true
			if worst < 0 {
				worst = t
			}
		}
	}
	switch {
	case !v.Drift:
		v.Reason = "stationary: no type reached the distance thresholds"
	case v.Scores[worst].TV >= d.TVThreshold:
		v.Reason = fmt.Sprintf("tv %.3f ≥ %.3f on type %d", v.Scores[worst].TV, d.TVThreshold, worst)
	default:
		v.Reason = fmt.Sprintf("kl %.3f ≥ %.3f on type %d", v.Scores[worst].KL, d.KLThreshold, worst)
	}
	return v, nil
}

// TotalVariation returns the total-variation distance ½·Σ|p−q| between
// two discrete distributions, summed over their supports. PMF is O(1)
// on every dist kind, so the cost is one pass over each support.
func TotalVariation(p, q dist.Distribution) float64 {
	var sum float64
	for _, s := range supportSpans(p, q) {
		for n := s[0]; n <= s[1]; n++ {
			sum += math.Abs(p.PMF(n) - q.PMF(n))
		}
	}
	return sum / 2
}

// klSmooth is the ε added to every PMF value inside SymmetrizedKL so
// points carried by only one distribution contribute a large-but-finite
// penalty instead of +Inf.
const klSmooth = 1e-9

// SymmetrizedKL returns the Jeffreys divergence KL(p‖q) + KL(q‖p) over
// the two supports, with ε-smoothing on both PMFs.
func SymmetrizedKL(p, q dist.Distribution) float64 {
	var sum float64
	for _, s := range supportSpans(p, q) {
		for n := s[0]; n <= s[1]; n++ {
			pp := p.PMF(n) + klSmooth
			qq := q.PMF(n) + klSmooth
			sum += (pp - qq) * math.Log(pp/qq)
		}
	}
	return sum
}

// Variance computes the variance of a distribution by one pass over its
// support. The dist interface exposes only the precomputed mean; the
// Tracker calls this once per installed model, off every hot path.
func Variance(d dist.Distribution) float64 {
	lo, hi := d.Support()
	mean := d.Mean()
	var v float64
	for n := lo; n <= hi; n++ {
		diff := float64(n) - mean
		v += diff * diff * d.PMF(n)
	}
	return v
}

// supportSpans returns the count ranges [lo, hi] that cover p's and
// q's supports, in increasing order: their union as one span when they
// overlap or touch (the second span is then empty), or each support on
// its own when a gap separates them. Both PMFs are zero in the gap, and
// so is every term of both distances, so skipping it leaves their sums
// bit for bit unchanged. The cost is then bounded by the supports'
// sizes, not by how far apart they lie: observed counts are client
// input, and a window of two-billion-alert periods must not cost two
// billion terms under the tracker lock.
func supportSpans(p, q dist.Distribution) [2][2]int {
	plo, phi := p.Support()
	qlo, qhi := q.Support()
	if qlo < plo {
		plo, phi, qlo, qhi = qlo, qhi, plo, phi
	}
	if qlo > phi+1 {
		return [2][2]int{{plo, phi}, {qlo, qhi}}
	}
	return [2][2]int{{plo, max(phi, qhi)}, {1, 0}}
}
