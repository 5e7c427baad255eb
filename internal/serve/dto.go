package serve

import "auditgame"

// APIVersion is the wire version stamped on every response. Requests may
// carry a "v" field; zero (absent) and the current version are accepted,
// anything newer is rejected with 400 so an old server never silently
// misreads a newer client's payload.
const APIVersion = 1

// SelectRequest is the body of POST /v1/select: one audit period's
// realized per-type alert counts, index-aligned with the policy's
// type_names.
type SelectRequest struct {
	V      int   `json:"v,omitempty"`
	Counts []int `json:"counts"`
}

// SelectResponse is the recourse outcome: the sampled priority ordering
// and the chosen alert indexes per type.
type SelectResponse struct {
	V int `json:"v"`
	// PolicyVersion identifies the policy that answered, so operators
	// can confirm which artifact served a given selection across hot
	// reloads.
	PolicyVersion uint64  `json:"policy_version"`
	Ordering      []int   `json:"ordering"`
	Chosen        [][]int `json:"chosen"`
	Spent         float64 `json:"spent"`
	Audited       int     `json:"audited"`
}

// PolicyResponse is the body of GET /v1/policy: the full current
// artifact plus serving metadata.
type PolicyResponse struct {
	V             int               `json:"v"`
	PolicyVersion uint64            `json:"policy_version"`
	Policy        *auditgame.Policy `json:"policy"`
}

// SolveRequest is the body of POST /v1/solve. The game, budget, and
// solver are fixed by the server's Auditor session; the request only
// bounds the solve.
type SolveRequest struct {
	V int `json:"v,omitempty"`
	// TimeoutSeconds deadline-bounds the solve; 0 means the server's
	// configured default (possibly unbounded).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// JobResponse describes an async job — a requested solve (POST
// /v1/solve) or a drift-triggered refit; GET /v1/solve/{id} polls both
// (the id prefix names the kind).
type JobResponse struct {
	V     int    `json:"v"`
	JobID string `json:"job_id"`
	// Status is "queued", "running", "done", "error", or "cancelled".
	// Queued jobs are waiting for a concurrency slot behind the bounded
	// solve queue.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// FailureKind classifies a failed job per the failure taxonomy:
	// "panic", "timeout", "cancelled", "transient", or "internal".
	// Empty for jobs that succeeded or have not finished.
	FailureKind string `json:"failure_kind,omitempty"`
	// Outcome distinguishes how a done refit job ended: "installed"
	// (the refit policy is now serving) or "gated" (the solve succeeded
	// but the policy did not move enough to install — a healthy
	// outcome, not a failure). Empty for solve jobs.
	Outcome string `json:"outcome,omitempty"`
	// PolicyVersion is the version the solved policy was installed as,
	// for status "done". A done refit job with policy_version 0 was
	// gated: the refit policy did not move enough to install (detail
	// says why).
	PolicyVersion  uint64  `json:"policy_version,omitempty"`
	ExpectedLoss   float64 `json:"expected_loss,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Detail carries the outcome explanation for refit jobs.
	Detail string `json:"detail,omitempty"`
	// Warm carries the warm-start accounting of column-generation solves
	// on sessions running MethodCGGS: whether the solve reused the
	// session's persisted column pool and LP basis, how many columns
	// seeded the first master, and the pricing-round count. Absent for
	// other methods and for jobs that failed before solving.
	Warm *auditgame.WarmStats `json:"warm_stats,omitempty"`
	// Stats is the solve's column-generation work accounting (MethodCGGS
	// sessions): columns, master solves, pivots, pal evaluations, and
	// the incremental pricing oracle's checkpoint-hit and pruning
	// counters. Absent for other methods and failed jobs.
	Stats *auditgame.CGGSStats `json:"solve_stats,omitempty"`
	// Trace is the solve's span timeline — pricing rounds with their
	// pivot counts, the refit gate decision — as recorded by the solver
	// stack. Present on finished solve/refit jobs.
	Trace *auditgame.SolveTrace `json:"trace,omitempty"`
}

// ObserveRequest is the body of POST /v1/observe: one audit period's
// realized per-type alert counts, index-aligned with the policy's
// type_names — the same shape /v1/select consumes, fed to the drift
// tracker instead of the selector.
type ObserveRequest struct {
	V      int   `json:"v,omitempty"`
	Counts []int `json:"counts"`
}

// ObserveResponse reports what the drift tracker made of one observed
// period.
type ObserveResponse struct {
	V int `json:"v"`
	// Period counts observations fed to the tracker so far.
	Period int `json:"period"`
	// Checked reports whether the drift detector ran on this period
	// (cadence, window fill, and hysteresis gate it); Drift whether it
	// fired.
	Checked bool   `json:"checked"`
	Drift   bool   `json:"drift"`
	Reason  string `json:"reason,omitempty"`
	// RefitJobID is the drift-triggered background refit job launched
	// (or already running) when Drift is true; poll it at GET
	// /v1/solve/{id}.
	RefitJobID string `json:"refit_job_id,omitempty"`
}

// DriftResponse is the body of GET /v1/drift: the tracker's state plus
// serving metadata.
type DriftResponse struct {
	V int `json:"v"`
	// Attached reports whether the session has a drift tracker at all.
	Attached      bool   `json:"attached"`
	PolicyVersion uint64 `json:"policy_version"`
	// RefitJobID is the most recent drift-triggered refit job, if any.
	RefitJobID string `json:"refit_job_id,omitempty"`
	// LastRefitOutcome is the most recent finished refit job's outcome:
	// "installed" or "gated" (empty while running or after a failure —
	// RefitHealth carries the failure taxonomy).
	LastRefitOutcome string `json:"last_refit_outcome,omitempty"`
	// RefitHealth is the session's refit containment state: the circuit
	// breaker (open/cooldown), the consecutive-failure count, and the
	// last failure with its taxonomy classification.
	RefitHealth *auditgame.RefitHealth `json:"refit_health,omitempty"`
	// LastRefitWarm is the warm-start accounting of the most recent
	// finished refit job (MethodCGGS sessions): whether the re-solve
	// reused the session's column pool and basis or fell back cold on a
	// structural change, and how many columns it reused.
	LastRefitWarm *auditgame.WarmStats `json:"last_refit_warm,omitempty"`
	// State is the tracker's detector state: window vs model means,
	// check/fire/install counters, hysteresis markers, and the last
	// decision with its per-type distance scores.
	State *auditgame.DriftState `json:"state,omitempty"`
}

// Health statuses.
const (
	// healthOK: serving normally.
	healthOK = "ok"
	// healthDegraded: still serving, but a containment mechanism is
	// engaged — the refit circuit breaker is open, or the last policy
	// checkpoint write failed.
	healthDegraded = "degraded"
	// healthRecovered: this process started by restoring the crash-safe
	// policy checkpoint and is serving the pre-crash policy under its
	// pre-crash version; a fresh install moves it back to "ok".
	healthRecovered = "recovered"
)

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	V int `json:"v"`
	// Status is "ok", "degraded", or "recovered".
	Status        string  `json:"status"`
	PolicyLoaded  bool    `json:"policy_loaded"`
	PolicyVersion uint64  `json:"policy_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// PolicyAgeSeconds is the time since the current policy was
	// installed (0 when none is) — a quick staleness read next to
	// PolicyVersion.
	PolicyAgeSeconds float64 `json:"policy_age_seconds"`
	// JobsRunning and JobsQueued are the solve-job table's current load
	// against the MaxConcurrentSolves / MaxQueuedSolves bounds;
	// JobsEvicted counts finished jobs the TTL sweep has evicted over
	// the process lifetime, and JobsReaped the stuck jobs the watchdog
	// cancelled.
	JobsRunning int    `json:"jobs_running"`
	JobsQueued  int    `json:"jobs_queued"`
	JobsEvicted uint64 `json:"jobs_evicted"`
	JobsReaped  uint64 `json:"jobs_reaped"`
	// RestoredFromCheckpoint reports that the serving policy was
	// restored from the crash-safe checkpoint at startup and has not
	// been superseded by a fresh install yet.
	RestoredFromCheckpoint bool `json:"restored_from_checkpoint,omitempty"`
	// CheckpointError is the last checkpoint-write failure, cleared by
	// the next successful write.
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// RefitHealth is the refit containment state (breaker, failures);
	// present when a drift tracker is attached.
	RefitHealth *auditgame.RefitHealth `json:"refit_health,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	V     int    `json:"v"`
	Error string `json:"error"`
}
