package sim

import (
	"context"
	"fmt"

	"auditgame"
	"auditgame/internal/dist"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// Injection is one drift-injector action: at Period − 0.5 (before the
// period's traffic fires) Apply mutates the traffic generators. Kind
// labels the shape for the event trace and the recovery records.
type Injection struct {
	Period int
	Kind   string
	Apply  func(tr *Traffic) error
}

// Scenario is a named closed-loop setup: the game's strategic shape,
// the traffic streams, the host's tracker tuning, the attacker, and
// the injected drifts. Every scenario stamps its game from the
// workload package's seasonal archetypes, so the simulator and the
// "seasonal" registry workload share one parameterization.
type Scenario struct {
	Name, Description string

	// Horizon is the default virtual-day count; Options may override.
	Horizon int

	// Entities, Victims, Profiles size the stamped game; the type count
	// is the stream count.
	Entities, Victims, Profiles int

	// BudgetFraction sets the audit budget as a fraction of the initial
	// model's expected full audit cost.
	BudgetFraction float64

	// BankSize is the realization bank behind every loss evaluation.
	BankSize int

	// Streams builds the per-type traffic sources; stream i's Base must
	// match the host's offline model for type i at period 0 (the run
	// starts converged, so early regret is ≈ 0 and everything later is
	// attributable to injected drift and the rota).
	Streams func() ([]Stream, error)

	// Tracker tunes the host's drift tracker; CronEvery the cron
	// strategy's period.
	Tracker   auditgame.TrackerConfig
	CronEvery int

	// Attacker tunes the adaptive adversary.
	Attacker AttackerConfig

	// Injections are the scheduled drifts.
	Injections []Injection
}

// Options selects and sizes one run.
type Options struct {
	// Horizon overrides the scenario default when positive.
	Horizon int
	// Seed drives every stream in the run. Zero means 1.
	Seed int64
	// Strategy picks the host's refit behaviour. Empty means drift.
	Strategy Strategy
	// BankSize overrides the scenario's realization bank when positive.
	BankSize int
	// Telemetry, when non-nil, receives the run's event throughput
	// (sim_events_total, sim_periods_total). It never perturbs the
	// deterministic trace hash.
	Telemetry *telemetry.Registry
}

// scenarios is the ordered registry (a slice, not a map, so listings
// are deterministic).
var scenarios = []Scenario{stepChange(), rampScenario(), burstScenario(), seasonalScenario()}

// Scenarios lists the registered scenario names in registry order.
func Scenarios() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}

// GetScenario returns a registered scenario by name.
func GetScenario(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Run executes one scenario end to end and returns its curves.
func Run(ctx context.Context, name string, opts Options) (*Result, error) {
	scn, ok := GetScenario(name)
	if !ok {
		return nil, fmt.Errorf("sim: unknown scenario %q (have %v)", name, Scenarios())
	}
	return scn.Run(ctx, opts)
}

// Run executes the scenario with the given options.
func (scn Scenario) Run(ctx context.Context, opts Options) (*Result, error) {
	horizon := scn.Horizon
	if opts.Horizon > 0 {
		horizon = opts.Horizon
	}
	if horizon < 1 {
		return nil, fmt.Errorf("sim: scenario %q needs a positive horizon", scn.Name)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	strategy := opts.Strategy
	if strategy == "" {
		strategy = StrategyDrift
	}
	bank := scn.BankSize
	if opts.BankSize > 0 {
		bank = opts.BankSize
	}

	streams, err := scn.Streams()
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %q streams: %w", scn.Name, err)
	}
	traffic, err := NewTraffic(streams)
	if err != nil {
		return nil, err
	}

	// The host's offline model: the stamped game whose count models are
	// the streams' period-0 bases. Stamping goes through the scaled
	// generator so the strategic structure (profiles, attack rows,
	// economics) is the workload package's.
	weekday, _ := workload.SeasonalRegimes()
	if len(streams) != len(weekday) {
		return nil, fmt.Errorf("sim: scenario %q has %d streams for %d archetypes", scn.Name, len(streams), len(weekday))
	}
	hostDists := make([]dist.Distribution, len(streams))
	for i, s := range streams {
		d, err := s.Base.Build()
		if err != nil {
			return nil, err
		}
		hostDists[i] = d
	}
	g, _, err := workload.Scaled{
		Templates:  weekday,
		Resolved:   hostDists,
		Entities:   scn.Entities,
		AlertTypes: len(streams),
		Victims:    scn.Victims,
		Profiles:   scn.Profiles,
		Seed:       subSeed(seed, "game"),
	}.Build(workload.Scale{})
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %q game: %w", scn.Name, err)
	}

	var fullCost float64
	for _, at := range g.Types {
		fullCost += at.Dist.Mean() * at.Cost
	}
	budget := scn.BudgetFraction * fullCost
	if budget <= 0 {
		return nil, fmt.Errorf("sim: scenario %q resolves to a non-positive budget %v", scn.Name, budget)
	}

	// Host and world share the realization-bank seed: the initial
	// policy is optimized against the same bank the regret is measured
	// on, so the run starts at ≈ zero regret.
	bankSeed := subSeed(seed, "bank")
	host, err := NewHost(ctx, HostConfig{
		Game:      g,
		Budget:    budget,
		Strategy:  strategy,
		CronEvery: scn.CronEvery,
		Tracker:   scn.Tracker,
		BankSize:  bank,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	attacker, err := NewAttacker(scn.Attacker, seed)
	if err != nil {
		return nil, err
	}

	kern := NewKernel()
	kern.Instrument(opts.Telemetry.Counter(
		"sim_events_total", "Discrete events dispatched by the simulation kernel.",
		telemetry.L("scenario", scn.Name)))
	periods := opts.Telemetry.Counter(
		"sim_periods_total", "Simulated periods completed.",
		telemetry.L("scenario", scn.Name))
	w := &World{
		kern:       kern,
		traffic:    traffic,
		host:       host,
		attacker:   attacker,
		budget:     budget,
		bankSize:   bank,
		bankSeed:   bankSeed,
		baseGame:   g,
		trafficRNG: subRNG(seed, "traffic"),
		trueInsts:  make(map[string]*auditgame.Instance),
		optLoss:    make(map[string]float64),
		servLoss:   make(map[string]float64),
		ctx:        ctx,
	}

	for _, inj := range scn.Injections {
		if inj.Period < 1 || inj.Period >= horizon {
			continue // outside this run's horizon
		}
		inj := inj
		if err := kern.Schedule(float64(inj.Period)-0.5, "inject:"+inj.Kind, func() {
			if w.err != nil {
				return
			}
			w.fail(inj.Apply(traffic))
		}); err != nil {
			return nil, err
		}
	}
	for p := 0; p < horizon; p++ {
		p := p
		if err := kern.Schedule(float64(p), "period", func() { w.period(p); periods.Inc() }); err != nil {
			return nil, err
		}
	}
	kern.Run()
	if w.err != nil {
		return nil, w.err
	}

	res := &Result{
		Scenario:        scn.Name,
		Strategy:        string(strategy),
		Seed:            seed,
		Horizon:         horizon,
		Budget:          budget,
		Events:          kern.Dispatched(),
		TraceHash:       fmt.Sprintf("%016x", kern.TraceHash()),
		CumRegret:       w.cumRegret,
		AttacksMounted:  attacker.Mounted,
		AlertsRaised:    attacker.Raised,
		AttacksDetected: attacker.Detected,
		Refrained:       attacker.Refrained,
		DriftFires:      host.DriftFires,
		Refits:          host.Refits,
		RefitsInstalled: host.Installed,
		RefitsGated:     host.Gated,
		Points:          w.points,
	}
	for _, pt := range w.points {
		if pt.Regret < -1e-9 {
			res.NegativeRegretPeriods++
		}
	}
	if attacker.Mounted > 0 {
		res.EmpiricalDetection = float64(attacker.Detected) / float64(attacker.Mounted)
		res.PredictedDetection = attacker.PredictedSum / float64(attacker.Mounted)
	}
	for _, inj := range scn.Injections {
		if inj.Period < 1 || inj.Period >= horizon {
			continue
		}
		rec := DriftRecord{Period: inj.Period, Kind: inj.Kind, RecoveredAt: -1, TimeToRecover: -1}
		peak := 0.0
		for _, pt := range w.points[inj.Period:] {
			if pt.Regret > peak {
				peak = pt.Regret
			}
			if recovered(pt, peak) {
				rec.RecoveredAt = pt.Period
				rec.TimeToRecover = pt.Period - inj.Period
				break
			}
		}
		res.Drifts = append(res.Drifts, rec)
	}
	return res, nil
}

// simTracker is the hysteresis tuning shared by the scenarios: a
// window short enough to turn within a scenario act, checked only at
// full fill, with firing/cooldown intervals that allow one refit per
// act. The detector thresholds are raised above the defaults because a
// 10-sample gaussian window fit carries enough small-sample distance
// noise (an underestimated σ̂ alone pushes TV past 0.2) to fire on a
// stationary stream; the scenarios' injected shifts are far larger
// than these bars, so sensitivity is not the constraint — quiet
// steady-state operation is.
func simTracker() auditgame.TrackerConfig {
	return auditgame.TrackerConfig{Window: 10, MinFill: 10, MinInterval: 5, Cooldown: 5, Detector: simDetector()}
}

// simDetector is the scenarios' drift detector: the PR 5 distance
// detector with small-window thresholds. VarRatio in particular must
// sit well above the default: an 8–10 sample window drawn from a wide
// gaussian routinely realizes a sample variance 8× below the model's
// (a χ² left tail, not drift), and the regime shifts the scenarios
// inject all move the mean far enough for the z-score to escalate on
// its own.
func simDetector() *auditgame.DistanceDetector {
	d := auditgame.NewDistanceDetector()
	d.ZThreshold = 4
	d.VarRatio = 16
	d.TVThreshold = 0.4
	return d
}

// steadyStreams returns the four seasonal weekday archetype models
// with unit pacers — the converged baseline every non-seasonal
// scenario starts from.
func steadyStreams() ([]Stream, error) {
	weekday, _ := workload.SeasonalRegimes()
	streams := make([]Stream, len(weekday))
	for i := range weekday {
		streams[i] = Stream{Base: weekday[i].Spec}
	}
	return streams, nil
}

// stepChange: the headline scenario — an abrupt regime break at period
// 12 (interactive volume collapses, remote activity triples) that a
// drift-triggered refit should absorb within one tracker window while
// the static policy keeps paying regret for the rest of the run.
func stepChange() Scenario {
	return Scenario{
		Name:           "stepchange",
		Description:    "abrupt rate break at period 12: ward-access ×0.35, remote-login ×3",
		Horizon:        48,
		Entities:       12,
		Victims:        6,
		Profiles:       4,
		BudgetFraction: 0.15,
		BankSize:       300,
		Streams:        steadyStreams,
		Tracker:        simTracker(),
		CronEvery:      16,
		Attacker:       AttackerConfig{Lag: 2},
		Injections: []Injection{{
			Period: 12,
			Kind:   "step",
			Apply: func(tr *Traffic) error {
				if err := tr.SetPacer(0, Steady(0.35)); err != nil {
					return err
				}
				return tr.SetPacer(3, Steady(3))
			},
		}},
	}
}

// rampScenario: the same break spread over 18 periods — the slow
// drift a step detector has to integrate.
func rampScenario() Scenario {
	return Scenario{
		Name:           "ramp",
		Description:    "slow drift: ward-access ramps to ×0.35 and remote-login to ×3 over periods 12–30",
		Horizon:        60,
		Entities:       12,
		Victims:        6,
		Profiles:       4,
		BudgetFraction: 0.15,
		BankSize:       300,
		Streams:        steadyStreams,
		Tracker:        simTracker(),
		CronEvery:      16,
		Attacker:       AttackerConfig{Lag: 2},
		Injections: []Injection{{
			Period: 12,
			Kind:   "ramp",
			Apply: func(tr *Traffic) error {
				if err := tr.SetPacer(0, Ramp{From: 1, To: 0.35, Start: 12, End: 30}); err != nil {
					return err
				}
				return tr.SetPacer(3, Ramp{From: 1, To: 3, Start: 12, End: 30})
			},
		}},
	}
}

// burstScenario: a transient after-hours storm plus a records-export
// outage — drift that reverts on its own, stressing the hysteresis
// (the tracker should not thrash when the world snaps back).
func burstScenario() Scenario {
	return Scenario{
		Name:           "burst",
		Description:    "after-hours ×6 burst over periods 16–28 with a records-export outage over 20–26",
		Horizon:        48,
		Entities:       12,
		Victims:        6,
		Profiles:       4,
		BudgetFraction: 0.15,
		BankSize:       300,
		Streams:        steadyStreams,
		Tracker:        simTracker(),
		CronEvery:      16,
		Attacker:       AttackerConfig{Lag: 2},
		Injections: []Injection{{
			Period: 16,
			Kind:   "burst",
			Apply: func(tr *Traffic) error {
				if err := tr.SetPacer(2, Burst{Peak: 6, Start: 16, End: 28}); err != nil {
					return err
				}
				return tr.SetPacer(1, Silence{Start: 20, End: 26})
			},
		}},
	}
}

// seasonalScenario: the rota from the "seasonal" workload's
// parameterization, stretched to 10 on-days / 5 off-days so each
// regime dwell exceeds the tracker window, with the host's offline
// model fitted to the on-regime only — the drift detector must fire at
// the scheduled regime boundaries. A permanent regime flip mid
// on-dwell at period 48 makes the off-regime the new baseline for the
// rest of the run (the 90-virtual-day example in examples/closed-loop).
func seasonalScenario() Scenario {
	return Scenario{
		Name:           "seasonal",
		Description:    "10-on/5-off seasonal rota from the seasonal workload's regimes, with a permanent regime flip at period 48",
		Horizon:        90,
		Entities:       12,
		Victims:        6,
		Profiles:       4,
		BudgetFraction: 0.15,
		BankSize:       300,
		Streams:        func() ([]Stream, error) { return seasonalStreams(10, 5) },
		Tracker:        auditgame.TrackerConfig{Window: 8, MinFill: 8, MinInterval: 4, Cooldown: 4, Detector: simDetector()},
		CronEvery:      15,
		Attacker:       AttackerConfig{Lag: 2},
		Injections: []Injection{{
			Period: 48,
			Kind:   "flip",
			Apply: func(tr *Traffic) error {
				_, weekend := workload.SeasonalRegimes()
				specs := make([]dist.Spec, len(weekend))
				for i := range weekend {
					specs[i] = weekend[i].Spec
				}
				if err := tr.SetBases(specs); err != nil {
					return err
				}
				// The flip is the new normal: drop the rota so the
				// off-regime holds from here on.
				return tr.SetPacer(-1, Steady(1))
			},
		}},
	}
}
