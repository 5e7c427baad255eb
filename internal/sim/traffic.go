package sim

import (
	"fmt"
	"math"
	"math/rand"

	"auditgame/internal/dist"
	"auditgame/internal/workload"
)

// Traffic is the benign alert stream: one base count model per alert
// type plus a composable rate pacer. Each period the pacer's rate
// scales the base model and a count is drawn from the scaled
// distribution — the generator is simultaneously the sampler (what the
// host observes) and the ground truth (SpecsAt is what the reference
// solves against), so the regret accounting can never drift away from
// the stream that produced it.

// Pacer modulates a stream's rate over virtual periods: Tick returns
// the multiplicative rate factor for period p. Pacers are pure
// functions of the period, so a mid-run mutation (the drift injector)
// changes the future without rewriting the past.
type Pacer interface {
	Tick(p int) float64
}

// Steady is a constant-rate pacer.
type Steady float64

func (s Steady) Tick(int) float64 { return float64(s) }

// Ramp interpolates the rate linearly from From at period Start to To
// at period End, holding the endpoints outside the window — the "slow
// drift" shape a step detector must integrate to notice.
type Ramp struct {
	From, To   float64
	Start, End int
}

func (r Ramp) Tick(p int) float64 {
	switch {
	case p <= r.Start || r.End <= r.Start:
		return r.From
	case p >= r.End:
		return r.To
	default:
		f := float64(p-r.Start) / float64(r.End-r.Start)
		return r.From + f*(r.To-r.From)
	}
}

// Burst multiplies the rate by Peak inside [Start, End) and is unity
// elsewhere.
type Burst struct {
	Peak       float64
	Start, End int
}

func (b Burst) Tick(p int) float64 {
	if p >= b.Start && p < b.End {
		return b.Peak
	}
	return 1
}

// Silence zeroes the stream inside [Start, End): an outage window.
type Silence struct {
	Start, End int
}

func (s Silence) Tick(p int) float64 {
	if p >= s.Start && p < s.End {
		return 0
	}
	return 1
}

// Compose multiplies pacers: the rate at p is the product of every
// component's rate.
type Compose []Pacer

func (c Compose) Tick(p int) float64 {
	rate := 1.0
	for _, pc := range c {
		rate *= pc.Tick(p)
	}
	return rate
}

// Rota is the seasonal regime switcher: OnDays periods in the base
// regime (rate 1) followed by OffDays periods at OffRate, repeating.
// With OnDays/OffDays = the workload package's 5/2 weekly cycle it is
// the simulator-side view of the "seasonal" workload's
// parameterization; tests stretch the rota so regime dwell exceeds the
// drift tracker's window.
type Rota struct {
	OnDays, OffDays int
	OffRate         float64
}

func (r Rota) Tick(p int) float64 {
	cycle := r.OnDays + r.OffDays
	if cycle <= 0 {
		return 1
	}
	if p%cycle >= r.OnDays {
		return r.OffRate
	}
	return 1
}

// Stream is one alert type's traffic source: a base count model and
// its pacer.
type Stream struct {
	// Base is the unscaled count model.
	Base dist.Spec
	// Pace modulates the rate; nil means Steady(1).
	Pace Pacer
}

// Traffic generates the benign per-period counts for every alert type.
type Traffic struct {
	streams []Stream
	// built caches scaled-spec → distribution, keyed by dist.Spec.Key:
	// a rota alternates between two scaled models for the whole run, so
	// the cache keeps the per-period cost at one map lookup instead of
	// one distribution construction.
	built map[string]dist.Distribution
}

// NewTraffic builds a generator over the given streams.
func NewTraffic(streams []Stream) (*Traffic, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("sim: traffic needs at least one stream")
	}
	tr := &Traffic{streams: make([]Stream, len(streams)), built: make(map[string]dist.Distribution)}
	copy(tr.streams, streams)
	for i := range tr.streams {
		if tr.streams[i].Pace == nil {
			tr.streams[i].Pace = Steady(1)
		}
		if _, err := tr.streams[i].Base.Build(); err != nil {
			return nil, fmt.Errorf("sim: traffic stream %d: %w", i, err)
		}
	}
	return tr, nil
}

// NumTypes returns the number of alert-type streams.
func (tr *Traffic) NumTypes() int { return len(tr.streams) }

// SpecsAt returns the true per-type count models in force at period p
// — the scaled specs the reference solve runs against.
func (tr *Traffic) SpecsAt(p int) ([]dist.Spec, error) {
	specs := make([]dist.Spec, len(tr.streams))
	for i, s := range tr.streams {
		sc, err := scaleSpec(s.Base, s.Pace.Tick(p))
		if err != nil {
			return nil, fmt.Errorf("sim: traffic stream %d at period %d: %w", i, p, err)
		}
		specs[i] = sc
	}
	return specs, nil
}

// Sample draws one period's benign counts from the period-p models.
func (tr *Traffic) Sample(p int, r *rand.Rand) ([]int, error) {
	specs, err := tr.SpecsAt(p)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(specs))
	for i, s := range specs {
		d, err := tr.dist(s)
		if err != nil {
			return nil, err
		}
		counts[i] = d.Sample(r)
	}
	return counts, nil
}

// dist resolves a scaled spec through the local cache.
func (tr *Traffic) dist(s dist.Spec) (dist.Distribution, error) {
	key := s.Key()
	if d, ok := tr.built[key]; ok {
		return d, nil
	}
	d, err := s.Build()
	if err != nil {
		return nil, err
	}
	tr.built[key] = d
	return d, nil
}

// SetPacer replaces stream t's pacer (the drift injector's step and
// ramp mutations). Negative t replaces every stream's pacer.
func (tr *Traffic) SetPacer(t int, p Pacer) error {
	if p == nil {
		return fmt.Errorf("sim: SetPacer needs a pacer")
	}
	if t < 0 {
		for i := range tr.streams {
			tr.streams[i].Pace = p
		}
		return nil
	}
	if t >= len(tr.streams) {
		return fmt.Errorf("sim: SetPacer type %d outside [0,%d)", t, len(tr.streams))
	}
	tr.streams[t].Pace = p
	return nil
}

// SetBases replaces every stream's base model (the drift injector's
// regime flip), keeping the pacers.
func (tr *Traffic) SetBases(specs []dist.Spec) error {
	if len(specs) != len(tr.streams) {
		return fmt.Errorf("sim: SetBases got %d specs for %d streams", len(specs), len(tr.streams))
	}
	for i, s := range specs {
		if _, err := s.Build(); err != nil {
			return fmt.Errorf("sim: SetBases spec %d: %w", i, err)
		}
		tr.streams[i].Base = s
	}
	return nil
}

// scaleSpec scales a count model's rate: Gaussian and empirical means
// scale linearly with spread scaling as sqrt(rate) (Poisson-like
// superposition), Poisson rates scale linearly, point masses round.
// Rate 1 is the identity; rate ≤ 0 collapses to a point mass at zero
// (the silence window).
func scaleSpec(s dist.Spec, rate float64) (dist.Spec, error) {
	if rate == 1 {
		return s, nil
	}
	if rate <= 0 {
		return dist.Spec{Kind: "point", N: 0}, nil
	}
	switch s.Kind {
	case "gaussian":
		s.Mean *= rate
		s.Std *= math.Sqrt(rate)
		if s.HalfWidth > 0 {
			hw := int(math.Round(float64(s.HalfWidth) * math.Sqrt(rate)))
			if hw < 1 {
				hw = 1
			}
			s.HalfWidth = hw
		}
		return s, nil
	case "poisson":
		s.Lambda *= rate
		return s, nil
	case "point":
		s.N = int(math.Round(float64(s.N) * rate))
		return s, nil
	case "empirical":
		counts := make([]int, len(s.Counts))
		for i, c := range s.Counts {
			counts[i] = int(math.Round(float64(c) * rate))
		}
		s.Counts = counts
		return s, nil
	default:
		return s, fmt.Errorf("cannot rate-scale a %q count model", s.Kind)
	}
}

// seasonalStreams builds the rota-paced streams of the seasonal
// scenarios from the workload package's shared regime parameterization:
// base = the weekday archetype models, off-regime rate per type = the
// weekend mean over the weekday mean, so the off-dwell of the rota
// reproduces the weekend archetypes' rates.
func seasonalStreams(onDays, offDays int) ([]Stream, error) {
	weekday, weekend := workload.SeasonalRegimes()
	streams := make([]Stream, len(weekday))
	for i := range weekday {
		wd, err := weekday[i].Spec.Build()
		if err != nil {
			return nil, err
		}
		we, err := weekend[i].Spec.Build()
		if err != nil {
			return nil, err
		}
		off := 0.0
		if wd.Mean() > 0 {
			off = we.Mean() / wd.Mean()
		}
		streams[i] = Stream{
			Base: weekday[i].Spec,
			Pace: Rota{OnDays: onDays, OffDays: offDays, OffRate: off},
		}
	}
	return streams, nil
}
