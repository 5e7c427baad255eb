package auditgame

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"auditgame/internal/solver"
	"auditgame/internal/telemetry"
)

// SolveMethod selects which algorithm an Auditor runs.
type SolveMethod string

const (
	// MethodISHM searches thresholds with the Iterative Shrink Heuristic
	// Method (Algorithm 2), solving the inner LP per AuditorConfig.ISHM.
	// This is the default: it is the paper's end-to-end method.
	MethodISHM SolveMethod = "ishm"
	// MethodCGGS solves the fixed-threshold LP by column generation
	// (Algorithm 1) at the configured thresholds.
	MethodCGGS SolveMethod = "cggs"
	// MethodExact solves the fixed-threshold LP over every ordering.
	// Exponential in the number of alert types; refuses more than 8.
	MethodExact SolveMethod = "exact"
	// MethodBruteForce exhaustively searches the integer threshold grid,
	// solving the ordering LP exactly at every point. Ground truth for
	// small games only (≤ 6 types).
	MethodBruteForce SolveMethod = "brute"
)

// AuditorConfig binds everything an audit deployment fixes up front —
// the workload, the budget, and the solver — so the session object can
// expose a small lifecycle API (Solve / Policy / Select / ReloadPolicy)
// on top.
//
// Exactly one of Workload, Game, or Instance picks the game:
//
//   - Workload + Scale request a registered scenario by name, the way
//     deployments should bind (any registered scenario is deployable);
//   - Game supplies an explicitly constructed *Game;
//   - Instance binds a prebuilt evaluation instance, keeping its budget
//     and realization source (batch experiments that also evaluate
//     baselines or losses on the instance bind this way).
//
// All three may be empty for a policy-only session that serves a
// pre-solved artifact via ReloadPolicy/Select and never solves.
type AuditorConfig struct {
	// Workload is a workload-registry name (see Workloads()); Scale is
	// its size request, zero for the scenario's published defaults.
	Workload string
	Scale    WorkloadScale
	// Game supplies an explicit game instead of a registry lookup.
	Game *Game
	// Instance binds a prebuilt evaluation instance; its budget and
	// realization source are kept and Budget/BudgetFraction/Source are
	// ignored.
	Instance *Instance

	// Budget is the per-period audit budget B. When zero,
	// BudgetFraction sets it as a fraction of the expected full audit
	// cost Σ_t E[Z_t]·C_t; when both are zero, Solve reports an error
	// (Select on a reloaded policy still works — the policy artifact
	// carries its own budget).
	Budget         float64
	BudgetFraction float64

	// Thresholds seeds the fixed-threshold methods (MethodCGGS,
	// MethodExact); nil means the workload's threshold seed — the
	// per-type full-coverage caps. MethodISHM and MethodBruteForce
	// search thresholds themselves and ignore this.
	Thresholds Thresholds

	// Source selects how expectations over alert-count realizations are
	// computed when the instance is built here (Workload or Game
	// binding).
	Source SourceOptions

	// Method picks the solver; empty means MethodISHM.
	Method SolveMethod
	// ISHM tunes MethodISHM (a zero Epsilon defaults to 0.1).
	ISHM ISHMConfig
	// CGGS tunes MethodCGGS and ISHM's column-generation inner solves.
	CGGS CGGSConfig

	// SelectSeed, when non-zero, makes the Select stream deterministic:
	// selections draw from one mutex-guarded RNG seeded here, so a
	// replay with the same seed and the same request sequence reproduces
	// the same audits. Zero (the default) uses a lock-free per-call RNG,
	// the right choice for concurrent serving.
	SelectSeed int64
}

// SolveResult carries the outcome of one Auditor.SolveDetailed call: the
// deployable policy plus the method-specific accounting.
type SolveResult struct {
	// Policy is the deployable artifact, already installed as the
	// session's current policy.
	Policy *Policy
	// Mixed is the solved mixed strategy with its objective.
	Mixed *MixedPolicy
	// ISHM carries the threshold-search accounting for MethodISHM.
	ISHM *ISHMResult
	// BruteForce carries the grid accounting for MethodBruteForce.
	BruteForce *BruteForceResult
	// Warm carries the warm-start accounting for MethodCGGS solves —
	// whether the solve reused the session's persisted column pool and
	// basis, how many columns seeded the first master, and the
	// pricing-round count. Nil for other methods.
	Warm *WarmStats
	// Stats is the cumulative work accounting of the session's
	// column-generation state for MethodCGGS solves — columns generated,
	// master solves, pivots, pal evaluations, and the incremental
	// pricing oracle's checkpoint-hit and pruning counters. Nil for
	// other methods.
	Stats *CGGSStats
	// PolicyVersion is the session version this solve's policy was
	// installed as. Read it from here rather than Auditor.PolicyVersion,
	// which may already reflect a later reload.
	PolicyVersion uint64
	// Trace is the solve's span timeline — pricing rounds and LP
	// pivots — recorded by the solver stack. Always set by SolveDetailed;
	// the serve layer forwards it through the solve-job DTO.
	Trace *SolveTrace
}

// Auditor is a deployment session: it binds a workload, a budget, and a
// solver configuration once, then exposes the lifecycle a serving
// process needs — cancellable solves, an atomically swappable current
// policy, thread-safe audit selection, and hot reload from the JSON
// artifact. All methods are safe for concurrent use; Select keeps
// serving the previous policy while a Solve or ReloadPolicy is in
// flight and observes the new one atomically.
type Auditor struct {
	cfg AuditorConfig

	// mu guards the lazily built game/instance and serializes Solve
	// calls (concurrent solves on one session would just duplicate
	// work; callers wanting parallel solves use separate Auditors).
	mu     sync.Mutex
	game   *Game
	in     *Instance
	seed   Thresholds // the workload's threshold seed (per-type caps)
	budget float64

	// solveState persists the column-generation solve state — column
	// pool and restricted-master basis — across Solve/Refit when the
	// session runs MethodCGGS. Solve replaces it cold; Refit warm-starts
	// from it when the refit instance is structurally compatible (same
	// budget, type set, entity classes, thresholds) and falls back to a
	// cold solve inside SolveState otherwise. Guarded by mu like every
	// other solve-path field.
	solveState *solver.SolveState

	// built re-publishes the game pointer once constructed, so readers
	// that only need its shape (SetPolicy's compatibility check, Game's
	// fast path) never block on mu while a long solve holds it.
	built atomic.Pointer[Game]

	// cur holds the current policy together with its version in one
	// atomic cell, so every reader sees a consistent (policy, version)
	// pair; installMu serializes writers (a reload may race a finishing
	// solve) so versions stay monotonic and each names the policy it
	// was stored with.
	cur       atomic.Pointer[installedPolicy]
	installMu sync.Mutex

	// selMu guards selRNG, the deterministic Select stream used when
	// cfg.SelectSeed is set.
	selMu  sync.Mutex
	selRNG *rand.Rand

	// refitBinding holds the attached drift tracker and its refit
	// options (see refit.go). It is its own atomic cell — not under mu —
	// so the Observe ingest path never blocks behind a long solve.
	refitBinding atomic.Pointer[trackerBinding]
	// refitting single-flights Refit: a drift firing that lands while a
	// refit is already solving is dropped, not queued.
	refitting atomic.Bool

	// breakerMu guards the refit circuit breaker (see RefitWithRetry):
	// the consecutive-failure count, the open-until mark, the last
	// failure, and the retry jitter stream.
	breakerMu        sync.Mutex
	breakerFails     int
	breakerOpenUntil time.Time
	lastRefitErr     error
	retryRNG         *rand.Rand

	// installHook, when set, is called after every install inside the
	// installMu critical section — the serving layer's crash-safe policy
	// checkpoint writes through it, so checkpoints observe installs in
	// version order with no interleaving.
	installHook atomic.Pointer[func(p *Policy, version uint64)]

	// metrics holds the session's telemetry counters (see SetMetrics).
	// An atomic pointer, not a field under mu: the Select hot path loads
	// it lock-free, and a nil pointer — the default — costs one
	// predictable branch and nothing else.
	metrics atomic.Pointer[SessionMetrics]
}

// SessionMetrics counts session lifecycle events on the hot paths.
// Handles may be nil (each increment is then a no-op); the struct is
// installed with SetMetrics. Deliberately counters only — no timing:
// Select runs in ~500 ns, so even one clock read per call would blow
// the < 2% instrumentation budget, while an atomic increment is ~2 ns.
type SessionMetrics struct {
	// Selects counts successful Select calls; SelectErrors the failed
	// ones (no policy, shape mismatch).
	Selects, SelectErrors *telemetry.Counter
	// Observes counts Auditor.Observe ingests.
	Observes *telemetry.Counter
	// Installs counts policy installs (solve, refit, reload, restore).
	Installs *telemetry.Counter
}

// SetMetrics installs (or, with nil, removes) the session's telemetry
// counters. Safe to call at any time, including while serving.
func (a *Auditor) SetMetrics(m *SessionMetrics) { a.metrics.Store(m) }

// installedPolicy pairs a policy with the session version it was
// installed as and the wall-clock instant of the install — the age the
// health endpoint reports.
type installedPolicy struct {
	p       *Policy
	version uint64
	at      time.Time
}

// NewAuditor validates the binding and creates the session. Game
// construction and instance preparation are deferred to the first Solve,
// so creating a policy-only serving session is cheap even when the
// configured workload is large.
func NewAuditor(cfg AuditorConfig) (*Auditor, error) {
	n := 0
	if cfg.Workload != "" {
		n++
		if _, ok := GetWorkload(cfg.Workload); !ok {
			return nil, fmt.Errorf("auditgame: unknown workload %q (have %v)", cfg.Workload, Workloads())
		}
	}
	if cfg.Game != nil {
		n++
	}
	if cfg.Instance != nil {
		n++
	}
	if n > 1 {
		return nil, fmt.Errorf("auditgame: AuditorConfig must bind at most one of Workload, Game, Instance")
	}
	switch cfg.Method {
	case "", MethodISHM, MethodCGGS, MethodExact, MethodBruteForce:
	default:
		return nil, fmt.Errorf("auditgame: unknown solve method %q", cfg.Method)
	}
	a := &Auditor{cfg: cfg}
	if cfg.SelectSeed != 0 {
		a.selRNG = rand.New(rand.NewSource(cfg.SelectSeed))
	}
	if cfg.Instance != nil {
		a.in = cfg.Instance
		a.game = cfg.Instance.G
		a.budget = cfg.Instance.Budget
		a.seed = a.game.ThresholdCaps()
		a.built.Store(a.game)
	}
	return a, nil
}

// ensureGame builds the bound game on first use. Callers hold a.mu.
func (a *Auditor) ensureGame() error {
	if a.game != nil {
		return nil
	}
	switch {
	case a.cfg.Workload != "":
		g, seed, err := BuildWorkload(a.cfg.Workload, a.cfg.Scale)
		if err != nil {
			return err
		}
		a.game, a.seed = g, seed
	case a.cfg.Game != nil:
		a.game = a.cfg.Game
		a.seed = a.game.ThresholdCaps()
	default:
		return fmt.Errorf("auditgame: Auditor has no workload, game, or instance bound; it can only serve a reloaded policy")
	}
	a.built.Store(a.game)
	return nil
}

// ensureInstance builds the game and evaluation instance on first use.
// Callers hold a.mu.
func (a *Auditor) ensureInstance() error {
	if a.in != nil {
		return nil
	}
	if err := a.ensureGame(); err != nil {
		return err
	}
	budget := a.cfg.Budget
	if budget == 0 && a.cfg.BudgetFraction > 0 {
		var fullCost float64
		for _, at := range a.game.Types {
			fullCost += at.Dist.Mean() * at.Cost
		}
		budget = a.cfg.BudgetFraction * fullCost
	}
	if budget <= 0 {
		return fmt.Errorf("auditgame: Auditor needs Budget or BudgetFraction to solve")
	}
	in, err := NewInstance(a.game, budget, a.cfg.Source)
	if err != nil {
		return err
	}
	a.in, a.budget = in, budget
	return nil
}

// Solve runs the configured solver under ctx and atomically installs the
// resulting policy as the session's current one. Cancellation and
// deadlines propagate into the solver loops: column generation checks
// the context once per generated column and ISHM before every threshold
// candidate, so a cancelled solve returns ctx's error within one pricing
// round and installs nothing. Once the session's policy version has
// reached MaxUint64, every install path (Solve, Refit, SetPolicy)
// fails and installs nothing: the next version would wrap to 0.
func (a *Auditor) Solve(ctx context.Context) (*Policy, error) {
	res, err := a.SolveDetailed(ctx)
	if err != nil {
		return nil, err
	}
	return res.Policy, nil
}

// SolveDetailed is Solve with the method-specific search accounting.
// Every solve records a span trace (pricing rounds, master pivots)
// unless the caller already attached one to ctx; the trace rides
// SolveResult.Trace into the serve layer's job DTO.
func (a *Auditor) SolveDetailed(ctx context.Context) (*SolveResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureInstance(); err != nil {
		return nil, err
	}

	thresholds := a.cfg.Thresholds
	if thresholds == nil {
		thresholds = a.seed
	}

	tr := telemetry.FromContext(ctx)
	if tr == nil {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
	}
	res, err := a.solveOn(ctx, a.in, thresholds, false)
	if err != nil {
		return nil, err
	}
	res.Policy = PolicyFrom(a.game, a.budget, res.Mixed)
	sp := tr.StartSpan("install")
	res.PolicyVersion, err = a.install(res.Policy, a.game.Dists(), nil)
	sp.EndValue(int64(res.PolicyVersion))
	if err != nil {
		return nil, err
	}
	res.Trace = tr.Data()
	return res, nil
}

// solveOn runs the session's configured solver on the given instance and
// threshold seed without installing anything — the shared body of
// SolveDetailed (which solves the bound instance and installs) and Refit
// (which solves a candidate instance and gates the install). Callers
// hold a.mu.
//
// warm asks MethodCGGS to re-solve from the session's persisted
// SolveState instead of cold. The other methods ignore it, and
// SolveState itself falls back to a cold solve when the instance is
// structurally incompatible with the persisted state.
func (a *Auditor) solveOn(ctx context.Context, in *Instance, thresholds Thresholds, warm bool) (*SolveResult, error) {
	res := &SolveResult{}
	switch a.cfg.Method {
	case "", MethodISHM:
		cfg := a.cfg.ISHM
		if cfg.Epsilon == 0 {
			cfg.Epsilon = 0.1
		}
		inner := a.ishmInner(cfg)
		workers := cfg.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		r, err := solver.ISHM(ctx, in, solver.ISHMOptions{
			Epsilon:         cfg.Epsilon,
			Inner:           inner,
			EvaluateInitial: true,
			Memoize:         true,
			MaxSubset:       cfg.MaxSubset,
			Workers:         workers,
		})
		if err != nil {
			return nil, err
		}
		res.ISHM, res.Mixed = r, r.Policy
	case MethodCGGS:
		if a.solveState == nil {
			a.solveState = solver.NewSolveState(solver.CGGSOptions{
				Initial:          a.cfg.CGGS.Initial,
				MaxColumns:       a.cfg.CGGS.MaxColumns,
				ExhaustiveOracle: a.cfg.CGGS.ExhaustiveOracle,
			})
		}
		var m *MixedPolicy
		var err error
		if warm {
			m, err = a.solveState.Refit(ctx, in, thresholds, nil)
		} else {
			m, err = a.solveState.Solve(ctx, in, thresholds)
		}
		if err != nil {
			return nil, err
		}
		ws := a.solveState.WarmStats()
		st := a.solveState.Stats()
		res.Mixed, res.Warm, res.Stats = m, &ws, &st
	case MethodExact:
		m, err := solver.Exact(ctx, in, thresholds)
		if err != nil {
			return nil, err
		}
		res.Mixed = m
	case MethodBruteForce:
		bf, err := solver.BruteForce(ctx, in)
		if err != nil {
			return nil, err
		}
		res.BruteForce, res.Mixed = bf, bf.Policy
	}
	return res, nil
}

// ishmInner builds the fixed-threshold inner solver ISHM uses, honoring
// the session's CGGS tuning. Callers hold a.mu.
func (a *Auditor) ishmInner(cfg ISHMConfig) solver.Inner {
	if cfg.ExactInner {
		return solver.ExactInner
	}
	opts := solver.CGGSOptions{
		Initial:          a.cfg.CGGS.Initial,
		MaxColumns:       a.cfg.CGGS.MaxColumns,
		ExhaustiveOracle: a.cfg.CGGS.ExhaustiveOracle,
	}
	return func(ctx context.Context, in *Instance, b Thresholds) (*MixedPolicy, error) {
		return solver.CGGS(ctx, in, b, opts)
	}
}

// install makes p the session's current policy and returns the version
// it was installed as. The swap is atomic: in-flight Select calls finish
// on the policy they loaded and later calls observe the new one; no call
// ever sees a partial policy or a (policy, version) pair that was never
// installed together.
//
// model, when non-nil, is the count model p was solved against; an
// attached drift tracker's reference is reset to it inside the same
// installMu critical section, so concurrent install paths (a finishing
// refit racing a hot reload) can never leave the tracker's reference
// version mismatched with the serving policy.
//
// Once the current version is MaxUint64, install refuses with an error
// and changes nothing: the next version would wrap to 0, the "no
// policy" value. swap, when non-nil, runs inside the critical section
// after that check and before p is stored, so a refit swaps its game and
// instance only when its policy installs.
func (a *Auditor) install(p *Policy, model []Distribution, swap func()) (uint64, error) {
	a.installMu.Lock()
	defer a.installMu.Unlock()
	v := uint64(1)
	if old := a.cur.Load(); old != nil {
		if old.version == math.MaxUint64 {
			return 0, fmt.Errorf("auditgame: policy version %d is the last one; installing another would wrap to 0", old.version)
		}
		v = old.version + 1
	}
	if swap != nil {
		swap()
	}
	a.cur.Store(&installedPolicy{p: p, version: v, at: time.Now()})
	if b := a.refitBinding.Load(); b != nil && model != nil {
		// Shape was validated at attach; installs are rare, so the
		// tracker's per-type variance pass is off every hot path.
		_ = b.tr.SetInstalled(model, v)
	}
	if h := a.installHook.Load(); h != nil {
		(*h)(p, v)
	}
	if m := a.metrics.Load(); m != nil {
		m.Installs.Inc()
	}
	return v, nil
}

// OnInstall registers fn to be called after every policy install with
// the installed policy and its version, inside the install critical
// section — calls are serialized and observe versions in order. The
// serving layer uses it to write the crash-safe last-known-good policy
// checkpoint. fn must be fast and must not call back into the Auditor's
// install paths (Solve, Refit, SetPolicy, ReloadPolicy): that would
// self-deadlock. Passing nil clears the hook.
func (a *Auditor) OnInstall(fn func(p *Policy, version uint64)) {
	if fn == nil {
		a.installHook.Store(nil)
		return
	}
	a.installHook.Store(&fn)
}

// RestorePolicy installs a checkpointed policy under its original
// version — the crash-recovery path: a restarting serving process
// restores the last-known-good checkpoint so the policy is served under
// the same policy_version it was installed as before the crash, before
// any solve runs. It is only valid on a session with no policy installed
// yet; later installs continue the version sequence from the restored
// version, so the version must be below MaxUint64: the next install
// would wrap to 0, the "no policy" version. The install hook is not
// called (the checkpoint already exists). A session bound to a workload
// or game builds it here if no solve has yet, so the policy's type
// count is always checked against it; only a policy-only session
// restores unchecked.
func (a *Auditor) RestorePolicy(p *Policy, version uint64) error {
	if version == 0 || version == math.MaxUint64 {
		return fmt.Errorf("auditgame: RestorePolicy needs the checkpointed version in [1, %d), got %d",
			uint64(math.MaxUint64), version)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	g := a.built.Load()
	if g == nil && (a.cfg.Workload != "" || a.cfg.Game != nil) {
		var err error
		if g, err = a.Game(); err != nil {
			return err
		}
	}
	if g != nil && len(p.TypeNames) != g.NumTypes() {
		return fmt.Errorf("auditgame: checkpoint policy covers %d alert types but the bound game has %d",
			len(p.TypeNames), g.NumTypes())
	}
	a.installMu.Lock()
	defer a.installMu.Unlock()
	if cur := a.cur.Load(); cur != nil {
		return fmt.Errorf("auditgame: RestorePolicy on a session already serving policy version %d", cur.version)
	}
	a.cur.Store(&installedPolicy{p: p, version: version, at: time.Now()})
	if b := a.refitBinding.Load(); b != nil && g != nil {
		_ = b.tr.SetInstalled(g.Dists(), version)
	}
	if m := a.metrics.Load(); m != nil {
		m.Installs.Inc()
	}
	return nil
}

// Policy returns the session's current policy, or nil before the first
// Solve/ReloadPolicy/SetPolicy. The returned policy must be treated as
// immutable — it may be serving concurrent Select calls.
func (a *Auditor) Policy() *Policy {
	p, _ := a.CurrentPolicy()
	return p
}

// PolicyVersion counts installed policies, starting at 0 for none. A
// serving layer exposes it so operators can confirm a hot reload took.
func (a *Auditor) PolicyVersion() uint64 {
	_, v := a.CurrentPolicy()
	return v
}

// CurrentPolicy returns the current policy together with its version as
// one consistent snapshot — what a serving layer stamps on a response to
// identify the policy that actually answered it.
func (a *Auditor) CurrentPolicy() (*Policy, uint64) {
	c := a.cur.Load()
	if c == nil {
		return nil, 0
	}
	return c.p, c.version
}

// PolicyInstalledAt returns when the current policy was installed, or
// the zero time before any install — the basis of the health
// endpoint's policy-age report.
func (a *Auditor) PolicyInstalledAt() time.Time {
	c := a.cur.Load()
	if c == nil {
		return time.Time{}
	}
	return c.at
}

// Select runs the recourse step for one audit period against the current
// policy: given realized per-type alert counts it samples a priority
// ordering and picks the alerts to audit within the thresholds and
// budget. Safe for concurrent use — with the default configuration each
// call draws from a pooled private RNG (no shared state, nothing
// blocks); with SelectSeed set, calls serialize on one seeded stream
// for reproducibility.
func (a *Auditor) Select(counts []int) (*AuditSelection, error) {
	sel, _, err := a.SelectVersioned(counts)
	return sel, err
}

// SelectVersioned is Select plus the version of the policy that answered
// — the pair a serving layer reports so the answer stays attributable
// across hot reloads.
func (a *Auditor) SelectVersioned(counts []int) (*AuditSelection, uint64, error) {
	p, v := a.CurrentPolicy()
	if p == nil {
		if m := a.metrics.Load(); m != nil {
			m.SelectErrors.Inc()
		}
		return nil, 0, fmt.Errorf("auditgame: Auditor has no policy yet; call Solve or ReloadPolicy first")
	}
	var sel *AuditSelection
	var err error
	if a.selRNG != nil {
		a.selMu.Lock()
		sel, err = p.Select(counts, a.selRNG)
		a.selMu.Unlock()
	} else {
		sel, err = p.SelectAuto(counts)
	}
	if m := a.metrics.Load(); m != nil {
		if err != nil {
			m.SelectErrors.Inc()
		} else {
			m.Selects.Inc()
		}
	}
	return sel, v, err
}

// ReloadPolicy reads a policy artifact (as written by Policy.Save),
// validates it against the bound game if one is already built, and
// atomically swaps it in. This is the hot-reload entry point: a serving
// process keeps answering Select calls on the old policy until the swap
// and on the new one after, with no request ever dropped.
func (a *Auditor) ReloadPolicy(r io.Reader) error {
	p, err := LoadPolicy(r)
	if err != nil {
		return err
	}
	return a.SetPolicy(p)
}

// SetPolicy validates p and installs it as the current policy. It never
// takes the solve lock — the shape check reads the published game
// pointer — so a hot reload lands immediately even while a long solve
// is running. Like every install, it resets an attached tracker's
// reference to the session's current game model under the new version,
// so /v1/drift stays attributable and a reload does not race the
// detector into an immediate refit.
func (a *Auditor) SetPolicy(p *Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := a.built.Load()
	if g != nil && len(p.TypeNames) != g.NumTypes() {
		return fmt.Errorf("auditgame: policy covers %d alert types but the bound game has %d",
			len(p.TypeNames), g.NumTypes())
	}
	var model []Distribution
	if g != nil {
		model = g.Dists()
	}
	_, err := a.install(p, model, nil)
	return err
}

// Game returns the bound game, building it on first use for registry
// bindings. Policy-only sessions return an error.
func (a *Auditor) Game() (*Game, error) {
	if g := a.built.Load(); g != nil {
		return g, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ensureGame(); err != nil {
		return nil, err
	}
	return a.game, nil
}
