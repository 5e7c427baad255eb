package dist

import (
	"strconv"
	"sync"
)

// Distributions are immutable after construction (the backing table is
// never written again and Sample draws randomness from the caller's
// source), so two alert types described by the same Spec can safely
// share one PMF/CDF table. Scaled workloads stamp dozens of types out
// of a handful of Spec templates, and games loaded from JSON routinely
// repeat a spec across types; without sharing, every repeat rebuilds
// and stores an identical table.

// sharedTables interns built distributions keyed by the canonical spec
// encoding. The lock is held across the build: builds are
// construction-time only and cheap relative to the tables they avoid
// duplicating, and holding it guarantees one build per spec even under
// concurrent callers.
var sharedTables = struct {
	sync.Mutex
	m map[string]Distribution
}{m: make(map[string]Distribution)}

// Shared builds the distribution described by s, returning a shared
// instance when an identical spec has been built before. The returned
// Distribution must be treated as read-only, which the Distribution
// interface already guarantees. Only successful builds are interned.
//
// Empirical specs are built directly rather than interned: their key
// space is the observation list itself, so a long-lived process fitting
// from changing data would grow the table forever. Callers stamping
// many types from one empirical fit should build it once and assign
// the result to each type (as the scaled workload generator does); the
// parametric kinds, whose universe is the configured template set, are
// the sharing win this cache exists for.
func Shared(s Spec) (Distribution, error) {
	if s.Kind == "empirical" {
		return s.Build()
	}
	key := s.Key()
	sharedTables.Lock()
	defer sharedTables.Unlock()
	if d, ok := sharedTables.m[key]; ok {
		return d, nil
	}
	d, err := s.Build()
	if err != nil {
		return nil, err
	}
	sharedTables.m[key] = d
	return d, nil
}

// Key encodes exactly the fields Build reads for the spec's kind, so
// two specs that build identical distributions — e.g. a gaussian with
// HalfWidth set and differing leftover Coverage values — map to one key,
// and specs that build different ones map to different keys. Callers
// caching built distributions key by it; Shared still never interns
// empirical specs.
func (s Spec) Key() string {
	b := make([]byte, 0, 48)
	b = append(b, s.Kind...)
	sep := func() { b = append(b, '|') }
	f := func(v float64) { b = strconv.AppendFloat(b, v, 'g', -1, 64) }
	switch s.Kind {
	case "gaussian":
		sep()
		f(s.Mean)
		sep()
		f(s.Std)
		sep()
		if s.HalfWidth != 0 {
			b = append(b, 'w')
			b = strconv.AppendInt(b, int64(s.HalfWidth), 10)
		} else {
			b = append(b, 'c')
			f(s.Coverage)
		}
	case "poisson":
		sep()
		f(s.Lambda)
		sep()
		f(s.Coverage)
	case "empirical":
		for _, c := range s.Counts {
			sep()
			b = strconv.AppendInt(b, int64(c), 10)
		}
	case "point", "soliton":
		sep()
		b = strconv.AppendInt(b, int64(s.N), 10)
	}
	return string(b)
}
