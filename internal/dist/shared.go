package dist

import (
	"encoding/binary"
	"math"
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
func (s Spec) Key() string { return string(s.AppendKey(make([]byte, 0, 48))) }

// AppendKey appends Key's bytes to b, so a lookup can run
// m[string(buf)] on a reused buffer without allocating. The key is the
// kind, length-prefixed, then every field Build reads as one 8-byte
// word — floats as their IEEE bits, ints as uint64 — with the empirical
// counts prefixed by their number. Every key is therefore
// self-delimiting, and a concatenation of keys identifies its specs.
// Raw bits split exactly the specs the shortest-decimal encoding did:
// that encoding is injective on every float64 except NaN payloads, and
// no spec with a NaN field builds.
func (s Spec) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Kind)))
	b = append(b, s.Kind...)
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { word(math.Float64bits(v)) }
	switch s.Kind {
	case "gaussian":
		f(s.Mean)
		f(s.Std)
		if s.HalfWidth != 0 {
			b = append(b, 'w')
			word(uint64(s.HalfWidth))
		} else {
			b = append(b, 'c')
			f(s.Coverage)
		}
	case "poisson":
		f(s.Lambda)
		f(s.Coverage)
	case "empirical":
		word(uint64(len(s.Counts)))
		for _, c := range s.Counts {
			word(uint64(c))
		}
	case "point", "soliton":
		word(uint64(s.N))
	}
	return b
}
