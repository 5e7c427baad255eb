// Package fault is a seeded, deterministic fault-injection registry:
// the failure model the rest of the repo is hardened against, and the
// machinery the chaos tests use to prove it. Production code calls
// Inject at named injection points; with no plan enabled that is one
// atomic pointer load and a nil check — no map lookup, no allocation,
// no branch mispredict fodder — so the points stay compiled into every
// build at effectively zero cost.
//
// A Plan is a seed plus a set of Rules. Each rule fires (or not) on the
// k-th hit of its point as a pure function of (seed, point, k): the
// schedule is reproducible run to run for a fixed per-point hit
// sequence, and under concurrency the *set* of firing hit indexes is
// still deterministic — only which goroutine draws which index varies.
//
// Three fault modes cover the failure taxonomy downstream layers must
// contain:
//
//   - ModeError returns a typed *Error (Transient() == true), modeling
//     recoverable faults the retry machinery should absorb;
//   - ModePanic panics with a *Panic value, modeling programming errors
//     and corrupted state that the containment guards must convert to
//     typed failures without killing the process;
//   - ModeLatency sleeps, modeling slow dependencies, so deadlines,
//     watchdogs, and backpressure get exercised.
//
// At injection points inside kernels with no error return (the pal
// worker loop, the simplex pivot loop) a ModeError rule fires as a
// panic carrying the typed error; the panic-containment guard at the
// solver entry converts it back into an error. Those points are marked
// "panic-only" in the catalog below.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Point names an injection point. The catalog below is the repo's
// failure model: every place the chaos harness may interfere with the
// solve/serve/refit loop.
type Point string

const (
	// SolverPricingRound fires once per column-generation pricing round
	// (restricted-master solve + oracle pass) inside SolveState.run.
	SolverPricingRound Point = "solver.pricing_round"
	// PalWorker fires once per work unit of the detection-probability
	// kernels' worker pool. Panic-only.
	PalWorker Point = "game.pal_worker"
	// LPPivot fires once per simplex pivot. Panic-only.
	LPPivot Point = "lp.pivot"
	// RefitSnapshot fires when a drift-triggered refit freezes the
	// tracker windows into its solve model.
	RefitSnapshot Point = "refit.snapshot"
	// PolicyInstall fires in the policy checkpoint write path, after a
	// policy install succeeds in memory.
	PolicyInstall Point = "policy.install"
	// JobRunner fires at the start of every async solve/refit job the
	// policy server runs.
	JobRunner Point = "serve.job"
	// HTTPHandler fires at the front of every HTTP request the policy
	// server handles.
	HTTPHandler Point = "serve.handler"
)

// Points returns the full injection-point catalog, in a fixed order —
// what a chaos schedule iterates to cover every point.
func Points() []Point {
	return []Point{
		SolverPricingRound, PalWorker, LPPivot, RefitSnapshot,
		PolicyInstall, JobRunner, HTTPHandler,
	}
}

// Mode is what an injection does when its rule fires.
type Mode uint8

const (
	// ModeError returns a typed *Error from Inject.
	ModeError Mode = iota
	// ModePanic panics with a *Panic value.
	ModePanic
	// ModeLatency sleeps for the rule's Latency, then returns nil.
	ModeLatency
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeLatency:
		return "latency"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Rule schedules faults at one point. A rule fires on hit k of its
// point when hash(seed, point, k) maps below Prob, k ≥ After, and the
// rule has fired fewer than MaxFires times.
type Rule struct {
	Point Point
	Mode  Mode
	// Prob is the per-hit firing probability in [0, 1], decided
	// deterministically per hit index.
	Prob float64
	// After skips the first After hits of the point, so a schedule can
	// let a system boot cleanly before interfering.
	After uint64
	// MaxFires caps this rule's firings; 0 means unlimited.
	MaxFires uint64
	// Latency is the ModeLatency sleep.
	Latency time.Duration
}

// Plan is a complete fault schedule: a seed and the rules it drives.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// Error is the typed error injected by ModeError rules. It reports
// itself transient — injected errors model recoverable faults, the
// class retry/backoff machinery is supposed to absorb.
type Error struct {
	Point Point
	// Hit is the 1-based hit index at which the rule fired.
	Hit uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s (hit %d)", e.Point, e.Hit)
}

// Transient marks injected errors as retryable for the failure
// classifier.
func (e *Error) Transient() bool { return true }

// Panic is the value ModePanic rules panic with, so containment guards
// (and tests) can tell an injected panic from a real one.
type Panic struct {
	Point Point
	Hit   uint64
}

func (p *Panic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// IsInjected reports whether err is (or wraps) an injected fault error.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// ruleState pairs a rule with its fire counter.
type ruleState struct {
	Rule
	fires atomic.Uint64
}

// pointState is the per-point hit counter plus the rules watching it.
type pointState struct {
	hits  atomic.Uint64
	rules []*ruleState
}

type registry struct {
	seed   int64
	points map[Point]*pointState
}

// active is the whole enable/disable mechanism: nil means disabled, and
// Inject's fast path is the single atomic load that finds that out.
var active atomic.Pointer[registry]

// Enable installs plan, replacing any active one. Counters start at
// zero, so enabling the same plan twice replays the same schedule.
func Enable(plan Plan) {
	r := &registry{seed: plan.Seed, points: make(map[Point]*pointState)}
	for _, rule := range plan.Rules {
		ps := r.points[rule.Point]
		if ps == nil {
			ps = &pointState{}
			r.points[rule.Point] = ps
		}
		ps.rules = append(ps.rules, &ruleState{Rule: rule})
	}
	active.Store(r)
}

// Disable removes the active plan; every Inject reverts to the no-op
// fast path.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Inject is the injection point call. Disabled: one atomic load, nil.
// Enabled: the point's hit counter advances and the first firing rule
// acts — ModeError returns a typed *Error, ModePanic panics with a
// *Panic, ModeLatency sleeps and returns nil.
func Inject(point Point) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.inject(point)
}

func (r *registry) inject(point Point) error {
	ps := r.points[point]
	if ps == nil {
		return nil
	}
	hit := ps.hits.Add(1)
	for _, rs := range ps.rules {
		if hit <= rs.After {
			continue
		}
		if rs.Prob < 1 && !fires(r.seed, point, hit, rs.Prob) {
			continue
		}
		if rs.MaxFires > 0 {
			// Reserve a firing slot; losing the race to the cap means
			// this hit passes clean.
			if n := rs.fires.Add(1); n > rs.MaxFires {
				rs.fires.Add(^uint64(0))
				continue
			}
		} else {
			rs.fires.Add(1)
		}
		switch rs.Mode {
		case ModePanic:
			panic(&Panic{Point: point, Hit: hit})
		case ModeLatency:
			time.Sleep(rs.Latency)
			return nil
		default:
			return &Error{Point: point, Hit: hit}
		}
	}
	return nil
}

// fires decides hit k of a point deterministically: a splitmix64 hash
// of (seed, point, k) mapped to [0, 1) and compared against prob.
func fires(seed int64, point Point, hit uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	h := uint64(seed)
	for i := 0; i < len(point); i++ {
		h = (h ^ uint64(point[i])) * 1099511628211 // FNV-1a step
	}
	h ^= hit
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	// Top 53 bits → uniform in [0, 1).
	u := float64(h>>11) / (1 << 53)
	return u < prob
}

// PointStats is one point's lifetime accounting under the active plan.
type PointStats struct {
	// Hits counts Inject calls at the point; Fires counts rule firings
	// (summed over the point's rules).
	Hits, Fires uint64
}

// Stats maps each point with at least one rule to its counters.
type Stats map[Point]PointStats

// For returns the stats of one point; a nil Stats (plan disabled) or a
// point without rules yields zeros, so scrape-time consumers can
// iterate the full Points catalog unconditionally.
func (s Stats) For(p Point) PointStats { return s[p] }

// Snapshot returns the counters of the active plan, or nil when
// disabled — what a chaos test asserts on to prove the schedule
// actually exercised every point.
func Snapshot() Stats {
	r := active.Load()
	if r == nil {
		return nil
	}
	s := make(Stats, len(r.points))
	for p, ps := range r.points {
		var fires uint64
		for _, rs := range ps.rules {
			fires += rs.fires.Load()
		}
		s[p] = PointStats{Hits: ps.hits.Load(), Fires: fires}
	}
	return s
}
