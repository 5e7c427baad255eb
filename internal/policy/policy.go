// Package policy turns a solved audit game into a deployable artifact: a
// serializable mixed audit strategy plus the recourse executor that, each
// audit period, samples a priority ordering and selects which of the
// realized alerts to investigate under the budget and thresholds. This is
// the piece an operations team actually runs against the TDMT log.
package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Policy is a complete, self-describing audit policy.
type Policy struct {
	// TypeNames labels the alert types, index-aligned with everything
	// else.
	TypeNames []string `json:"type_names"`
	// Costs[t] is the audit cost C_t of one type-t alert.
	Costs []float64 `json:"costs"`
	// Budget is the per-period audit budget B.
	Budget float64 `json:"budget"`
	// Thresholds[t] is the per-type budget cap b_t.
	Thresholds []float64 `json:"thresholds"`
	// Orderings are the support of the mixed strategy; Probs are their
	// probabilities.
	Orderings [][]int   `json:"orderings"`
	Probs     []float64 `json:"probs"`
	// ExpectedLoss is the auditor's game value under this policy, kept
	// for operator dashboards.
	ExpectedLoss float64 `json:"expected_loss"`
}

// ValidationError pinpoints the offending field of an invalid policy
// artifact, so operators debugging a rejected reload see exactly which
// JSON entry is bad rather than a generic decode failure.
type ValidationError struct {
	// Field is the JSON path of the bad entry, e.g. "probs[3]".
	Field string
	// Value is the offending number.
	Value float64
	// Reason says what is wrong with it.
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("policy: invalid %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks internal consistency.
func (p *Policy) Validate() error {
	nT := len(p.TypeNames)
	if nT == 0 {
		return fmt.Errorf("policy: no alert types")
	}
	if len(p.Costs) != nT || len(p.Thresholds) != nT {
		return fmt.Errorf("policy: costs/thresholds length mismatch (%d/%d, want %d)",
			len(p.Costs), len(p.Thresholds), nT)
	}
	for t, c := range p.Costs {
		if math.IsNaN(c) || c <= 0 {
			return &ValidationError{Field: fmt.Sprintf("costs[%d]", t), Value: c, Reason: "audit cost must be a positive number"}
		}
		if b := p.Thresholds[t]; math.IsNaN(b) || b < 0 {
			return &ValidationError{Field: fmt.Sprintf("thresholds[%d]", t), Value: b, Reason: "threshold must be non-negative"}
		}
	}
	if math.IsNaN(p.Budget) || p.Budget < 0 {
		return &ValidationError{Field: "budget", Value: p.Budget, Reason: "budget must be non-negative"}
	}
	if math.IsNaN(p.ExpectedLoss) {
		return &ValidationError{Field: "expected_loss", Value: p.ExpectedLoss, Reason: "expected loss must be a number"}
	}
	if len(p.Orderings) == 0 || len(p.Orderings) != len(p.Probs) {
		return fmt.Errorf("policy: %d orderings with %d probs", len(p.Orderings), len(p.Probs))
	}
	var sum float64
	for i, o := range p.Orderings {
		if err := validPerm(o, nT); err != nil {
			return fmt.Errorf("policy: ordering %d: %v", i, err)
		}
		if pr := p.Probs[i]; math.IsNaN(pr) || pr < -1e-9 {
			return &ValidationError{Field: fmt.Sprintf("probs[%d]", i), Value: pr, Reason: "probability must be non-negative"}
		}
		sum += p.Probs[i]
	}
	if math.Abs(sum-1) > 1e-6 {
		return &ValidationError{Field: "probs", Value: sum, Reason: "probabilities must sum to 1 (±1e-6)"}
	}
	return nil
}

// Normalize snaps the mixed strategy back onto the simplex: probabilities
// within 1e-9 below zero are clamped to 0 and the vector is rescaled to
// sum to exactly 1, provided the drift is inside Validate's 1e-6
// acceptance band. Anything further off stays untouched for Validate to
// reject with the offending field. Load applies this automatically, so a
// serving process never accumulates float drift across repeated
// save/reload cycles.
func (p *Policy) Normalize() {
	var sum float64
	for i, pr := range p.Probs {
		if pr < 0 && pr >= -1e-9 {
			p.Probs[i] = 0
			pr = 0
		}
		sum += pr
	}
	if sum <= 0 || math.IsNaN(sum) || math.Abs(sum-1) > 1e-6 {
		return
	}
	for i := range p.Probs {
		p.Probs[i] /= sum
	}
}

func validPerm(o []int, n int) error {
	if len(o) != n {
		return fmt.Errorf("length %d, want %d", len(o), n)
	}
	seen := make([]bool, n)
	for _, t := range o {
		if t < 0 || t >= n || seen[t] {
			return fmt.Errorf("not a permutation of 0..%d", n-1)
		}
		seen[t] = true
	}
	return nil
}

// Save writes the policy as indented JSON.
func (p *Policy) Save(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Load reads a policy written by Save, renormalizes float drift in the
// mixed strategy, and validates it. Invalid numeric fields are reported
// as a *ValidationError naming the offending JSON entry.
func Load(r io.Reader) (*Policy, error) {
	var p Policy
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("policy: decode: %w", err)
	}
	p.Normalize()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// SampleOrdering draws a priority ordering from the mixed strategy.
func (p *Policy) SampleOrdering(r *rand.Rand) []int {
	u := r.Float64()
	var acc float64
	for i, pr := range p.Probs {
		acc += pr
		if u <= acc {
			return append([]int(nil), p.Orderings[i]...)
		}
	}
	return append([]int(nil), p.Orderings[len(p.Orderings)-1]...)
}

// Selection is the outcome of one audit period: which alert indexes (into
// each type's realized bin) get audited.
type Selection struct {
	// Ordering is the sampled priority order used this period.
	Ordering []int
	// Chosen[t] lists the selected indexes into type t's bin, sorted.
	Chosen [][]int
	// Spent is the budget consumed.
	Spent float64
}

// Audited returns the total number of alerts selected.
func (s *Selection) Audited() int {
	n := 0
	for _, c := range s.Chosen {
		n += len(c)
	}
	return n
}

// Select runs the recourse step for one audit period: given the realized
// per-type alert counts, it samples an ordering and walks it, spending at
// most min(threshold, remaining budget) on each type and choosing a
// uniformly random subset of that type's alerts. Random subsets (rather
// than, say, the first alerts of the day) are what make the solved
// detection probabilities n_t/Z_t real.
func (p *Policy) Select(counts []int, r *rand.Rand) (*Selection, error) {
	if len(counts) != len(p.TypeNames) {
		return nil, fmt.Errorf("policy: %d counts for %d types", len(counts), len(p.TypeNames))
	}
	for t, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("policy: negative count %d for type %d", c, t)
		}
	}
	sel := &Selection{
		Ordering: p.SampleOrdering(r),
		Chosen:   make([][]int, len(counts)),
	}
	remaining := p.Budget
	for _, t := range sel.Ordering {
		ct := p.Costs[t]
		nAfford := int(math.Floor(remaining / ct))
		if nAfford < 0 {
			nAfford = 0
		}
		nCap := int(math.Floor(p.Thresholds[t] / ct))
		n := min3(nAfford, nCap, counts[t])
		if n > 0 {
			sel.Chosen[t] = sampleIndexes(counts[t], n, r)
			sel.Spent += float64(n) * ct
		}
		// Budget accounting matches the game model's recursion: the
		// type "reserves" min(threshold, realized cost) even if fewer
		// audits were affordable.
		remaining -= math.Min(p.Thresholds[t], float64(counts[t])*ct)
	}
	return sel, nil
}

// selectSeed is the lock-free seed sequence behind SelectAuto's RNG
// pool: each fresh generator advances it by the golden-ratio increment
// and finalizes with the splitmix64 mixer, so generators are seeded
// distinct and well-spread without any shared mutex.
var selectSeed atomic.Uint64

func init() { selectSeed.Store(uint64(time.Now().UnixNano())) }

func nextSelectSeed() int64 {
	x := selectSeed.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// selectRNGs pools the SelectAuto generators: seeding a math/rand
// source expands ~600 words of state, far too expensive per request on
// the serving hot path. A pooled generator is seeded once and then just
// continues its stream across uses; no state is ever shared between
// concurrent callers.
var selectRNGs = sync.Pool{
	New: func() any { return rand.New(rand.NewSource(nextSelectSeed())) },
}

// SelectAuto is Select with an internally managed random source, safe
// for concurrent use from any number of goroutines: each call checks a
// private generator out of a pool seeded from a lock-free sequence, so
// no RNG state is shared and nothing blocks. Serving deployments use
// this path; deterministic tests and replays keep the seeded Select
// variant.
func (p *Policy) SelectAuto(counts []int) (*Selection, error) {
	r := selectRNGs.Get().(*rand.Rand)
	sel, err := p.Select(counts, r)
	selectRNGs.Put(r)
	return sel, err
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// sampleIndexes draws n distinct indexes uniformly from [0, total) and
// returns them sorted. It runs Floyd's algorithm, keeping the draws in
// sorted order as they arrive: n draws and O(n) memory, however large
// total is. total is a realized count that serving clients supply, so
// nothing here may grow with it.
func sampleIndexes(total, n int, r *rand.Rand) []int {
	chosen := make([]int, 0, n)
	for j := total - n; j < total; j++ {
		v := r.Intn(j + 1)
		i, taken := slices.BinarySearch(chosen, v)
		if taken {
			// Every earlier draw is below j, so j sorts last.
			chosen = append(chosen, j)
		} else {
			chosen = slices.Insert(chosen, i, v)
		}
	}
	return chosen
}
