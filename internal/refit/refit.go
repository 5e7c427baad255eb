// Package refit is the streaming model-tracking subsystem: it watches
// the live alert workload through sliding windows, detects when the
// workload has drifted away from the count model the installed policy
// was solved against (the paper assumes the F_t of §II-A are known and
// fixed; a deployment's are neither), and tells the caller when a
// re-solve is worth launching.
//
// The Tracker owns one dist.StreamEstimator per alert type. Each
// Observe records one audit period's realized counts; on a configured
// cadence — and subject to hysteresis — a pluggable Detector compares
// the windows against the installed model. When it fires, the caller
// — the policy server's job runner, the simulator, or an application
// loop; auditgame.Auditor.Observe only forwards the decision — launches
// the re-solve (Auditor.Refit or RefitWithRetry), which solves on the
// window snapshot and applies a second-stage "policy-moved-enough" gate
// before installing the result; the Tracker only decides that the model
// moved, never solves.
package refit

import (
	"fmt"
	"sync"

	"auditgame/internal/dist"
)

// Config tunes a Tracker. The zero value of every field selects a
// sensible default, recorded on the field.
type Config struct {
	// Window is the sliding-window size in periods. Default 28.
	Window int
	// MinFill is the number of windowed observations required before
	// detection runs at all — a half-empty window fits too noisily to
	// accuse the model. Default Window/2 (at least 2).
	MinFill int
	// Cadence runs the detector every Cadence-th Observe. Default 1
	// (every period); raise it to amortize the per-check window pass
	// on high-rate ingest paths.
	Cadence int
	// MinInterval is the minimum number of periods between two drift
	// firings, however loud the detector — the first hysteresis stage,
	// bounding refit churn when the workload moves continuously.
	// Default Window/2; negative disables.
	MinInterval int
	// Cooldown suppresses detection for this many periods after a new
	// model is installed, while the window still holds a pre/post-refit
	// mixture that matches neither model. Default Window/2; negative
	// disables.
	Cooldown int
	// Coverage is the two-sided coverage of the Gaussian window
	// snapshots. Default 0.995, the paper's choice.
	Coverage float64
	// Detector decides drift. Default: NewDistanceDetector().
	Detector Detector
}

// withDefaults resolves zero fields and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if c.Window == 0 {
		c.Window = 28
	}
	if c.Window < 1 {
		return c, fmt.Errorf("refit: window %d must be ≥ 1", c.Window)
	}
	if c.MinFill == 0 {
		c.MinFill = max(c.Window/2, 2)
	}
	if c.MinFill < 1 || c.MinFill > c.Window {
		return c, fmt.Errorf("refit: min fill %d must be in [1, window %d]", c.MinFill, c.Window)
	}
	if c.Cadence == 0 {
		c.Cadence = 1
	}
	if c.Cadence < 1 {
		return c, fmt.Errorf("refit: cadence %d must be ≥ 1", c.Cadence)
	}
	switch {
	case c.MinInterval == 0:
		c.MinInterval = c.Window / 2
	case c.MinInterval < 0:
		c.MinInterval = 0
	}
	switch {
	case c.Cooldown == 0:
		c.Cooldown = c.Window / 2
	case c.Cooldown < 0:
		c.Cooldown = 0
	}
	if c.Coverage == 0 {
		c.Coverage = 0.995
	}
	if !(c.Coverage > 0 && c.Coverage < 1) {
		return c, fmt.Errorf("refit: coverage %v must be in (0, 1)", c.Coverage)
	}
	if c.Detector == nil {
		c.Detector = NewDistanceDetector()
	}
	return c, nil
}

// Decision is the outcome of one Observe: whether drift fired, and why
// or why not.
type Decision struct {
	// Period is the 1-based count of periods observed so far.
	Period int `json:"period"`
	// Checked reports whether the detector ran this period; when false,
	// Reason says what suppressed it (cadence, fill, hysteresis, no
	// installed model) or why the detector failed.
	Checked bool `json:"checked"`
	// Drift reports a firing: the workload has moved from the installed
	// model and hysteresis allows acting on it.
	Drift bool `json:"drift"`
	// Reason is the detector's (or the suppression's) explanation.
	Reason string `json:"reason"`
	// Scores carries the per-type drift evidence of a checked period.
	Scores []TypeScore `json:"scores,omitempty"`
}

// State is a serializable snapshot of a Tracker, the payload of the
// policy server's GET /v1/drift.
type State struct {
	Types   int `json:"types"`
	Window  int `json:"window"`
	Periods int `json:"periods"`
	// Fill is the number of observations currently windowed.
	Fill int `json:"fill"`
	// WindowMeans and ModelMeans compare, per type, the live window
	// against the installed model.
	WindowMeans []float64 `json:"window_means"`
	ModelMeans  []float64 `json:"model_means,omitempty"`
	// InstalledVersion is the policy version the reference model was
	// installed with — the "last refit" marker.
	InstalledVersion uint64 `json:"installed_policy_version"`
	// InstalledAt is the period the reference model was installed, -1
	// before any install.
	InstalledAt int `json:"installed_at_period"`
	// Checks, Fires, Installs count detector runs, drift firings, and
	// model installs over the tracker's lifetime.
	Checks   int `json:"checks"`
	Fires    int `json:"fires"`
	Installs int `json:"installs"`
	// LastFirePeriod is the period of the most recent firing, -1 never.
	LastFirePeriod int `json:"last_fire_period"`
	// Last is the most recent Observe decision.
	Last *Decision `json:"last,omitempty"`
	// Detector names the configured detector.
	Detector string `json:"detector"`
}

// Tracker tracks one deployment's workload: a StreamEstimator per alert
// type, the installed reference model, and the drift/hysteresis state
// machine. All methods are safe for concurrent use; Observe is the hot
// path and holds the lock only for the ring-buffer writes plus — on
// cadence periods — one detector run.
type Tracker struct {
	cfg Config

	mu        sync.Mutex
	est       []*dist.StreamEstimator
	installed []dist.Distribution // reference model, nil before SetInstalled
	instVar   []float64           // its per-type variances, precomputed
	instVer   uint64
	instAt    int // period of the last install, -1 never
	period    int
	lastFire  int // period of the last drift firing, -1 never
	checks    int
	fires     int
	installs  int
	last      *Decision
}

// New creates a Tracker over numTypes alert types.
func New(numTypes int, cfg Config) (*Tracker, error) {
	if numTypes < 1 {
		return nil, fmt.Errorf("refit: tracker needs ≥ 1 alert type, got %d", numTypes)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tracker{cfg: cfg, est: make([]*dist.StreamEstimator, numTypes), instAt: -1, lastFire: -1}
	for i := range t.est {
		if t.est[i], err = dist.NewStreamEstimator(cfg.Window); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Config returns the tracker's configuration with defaults resolved.
func (t *Tracker) Config() Config { return t.cfg }

// Counters returns the tracker's lifetime detector counters — a cheap
// scrape-time accessor for telemetry gauges that skips the per-type
// window copies State assembles.
func (t *Tracker) Counters() (checks, fires, installs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checks, t.fires, t.installs
}

// NumTypes returns the number of tracked alert types.
func (t *Tracker) NumTypes() int { return len(t.est) }

// SetInstalled records the count model the currently-installed policy
// was solved against, as the reference the detector compares windows
// to, and starts the post-install cooldown. The Auditor calls it after
// every install (initial attach, manual solve, accepted refit).
func (t *Tracker) SetInstalled(model []dist.Distribution, policyVersion uint64) error {
	if len(model) != len(t.est) {
		return fmt.Errorf("refit: installed model has %d types, tracker has %d", len(model), len(t.est))
	}
	vars := make([]float64, len(model))
	for i, d := range model {
		if d == nil {
			return fmt.Errorf("refit: installed model type %d is nil", i)
		}
		vars[i] = Variance(d)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.installed = model
	t.instVar = vars
	t.instVer = policyVersion
	t.instAt = t.period
	t.installs++
	return nil
}

// Observe records one audit period's realized per-type counts and, on
// cadence periods that clear the hysteresis gates, runs the drift
// detector. The returned Decision says whether drift fired; the caller
// decides what a firing launches. An error means the counts were
// rejected and nothing was recorded; a detector failure is reported as
// an unchecked Decision instead, because the period is already in the
// windows by then.
func (t *Tracker) Observe(counts []int) (Decision, error) {
	if len(counts) != len(t.est) {
		return Decision{}, fmt.Errorf("refit: observed %d counts, tracker has %d types", len(counts), len(t.est))
	}
	for i, c := range counts {
		if c < 0 {
			return Decision{}, fmt.Errorf("refit: negative count %d for type %d", c, i)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range counts {
		t.est[i].Observe(c)
	}
	t.period++
	d := Decision{Period: t.period}

	if reason, ok := t.checkableLocked(); !ok {
		d.Reason = reason
		t.last = &d
		return d, nil
	}
	views := make([]TypeWindow, len(t.est))
	for i, e := range t.est {
		mean, std, n := e.Stats()
		est := e
		views[i] = TypeWindow{
			Installed:    t.installed[i],
			InstalledVar: t.instVar[i],
			Mean:         mean,
			Std:          std,
			N:            n,
			Snapshot:     func() (dist.Distribution, error) { return est.SnapshotGaussian(t.cfg.Coverage) },
		}
	}
	v, err := t.cfg.Detector.Detect(views)
	if err != nil {
		d.Reason = "detector failed: " + err.Error()
		t.last = &d
		return d, nil
	}
	t.checks++
	d.Checked = true
	d.Reason = v.Reason
	d.Scores = v.Scores
	if v.Drift {
		d.Drift = true
		t.fires++
		t.lastFire = t.period
	}
	t.last = &d
	return d, nil
}

// checkableLocked applies the detection gates in order — installed
// model, cadence, window fill, post-install cooldown, inter-fire
// interval — returning the blocking reason when detection must not run
// this period. Callers hold t.mu.
func (t *Tracker) checkableLocked() (string, bool) {
	if t.installed == nil {
		return "no installed model to compare against", false
	}
	if t.period%t.cfg.Cadence != 0 {
		return fmt.Sprintf("off cadence (every %d periods)", t.cfg.Cadence), false
	}
	if fill := t.est[0].Len(); fill < t.cfg.MinFill {
		return fmt.Sprintf("window fill %d below min fill %d", fill, t.cfg.MinFill), false
	}
	if since := t.period - t.instAt; since < t.cfg.Cooldown {
		return fmt.Sprintf("cooldown: %d of %d periods since install", since, t.cfg.Cooldown), false
	}
	if t.lastFire >= 0 {
		if since := t.period - t.lastFire; since < t.cfg.MinInterval {
			return fmt.Sprintf("hysteresis: %d of %d periods since last firing", since, t.cfg.MinInterval), false
		}
	}
	return "", true
}

// Snapshot freezes every type's window into a serializable dist.Spec,
// the model a refit re-solves against. It fails if any window is still
// empty.
func (t *Tracker) Snapshot() ([]dist.Spec, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	specs := make([]dist.Spec, len(t.est))
	for i, e := range t.est {
		s, err := e.SnapshotSpec(t.cfg.Coverage)
		if err != nil {
			return nil, fmt.Errorf("refit: type %d: %w", i, err)
		}
		specs[i] = s
	}
	return specs, nil
}

// State reports the tracker's serializable state.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := State{
		Types:            len(t.est),
		Window:           t.cfg.Window,
		Periods:          t.period,
		Fill:             t.est[0].Len(),
		WindowMeans:      make([]float64, len(t.est)),
		InstalledVersion: t.instVer,
		InstalledAt:      t.instAt,
		Checks:           t.checks,
		Fires:            t.fires,
		Installs:         t.installs,
		LastFirePeriod:   t.lastFire,
		Last:             t.last,
		Detector:         t.cfg.Detector.Name(),
	}
	for i, e := range t.est {
		s.WindowMeans[i] = e.Mean()
	}
	if t.installed != nil {
		s.ModelMeans = make([]float64, len(t.installed))
		for i, d := range t.installed {
			s.ModelMeans[i] = d.Mean()
		}
	}
	return s
}
