// Package serve is the deployment face of the reproduction: a
// long-running HTTP policy server on top of the auditgame.Auditor
// session API. Daily alert counts go in (POST /v1/select), audit
// selections come out; the policy artifact hot-reloads from disk (mtime
// poll + SIGHUP) with an atomic swap, so a refreshed policy takes over
// mid-traffic without dropping a request; POST /v1/solve runs
// cancellable, deadline-bounded re-solves as async jobs; and when the
// session has a drift tracker attached, POST /v1/observe feeds the
// realized counts to it, a drift firing launches a refit on the same
// job runner, and GET /v1/drift exposes the detector state.
//
// With a telemetry registry attached (Config.Telemetry) the whole loop
// is instrumented — per-endpoint latency histograms, job-table and
// drift counters, solve-work accounting — and exposed in Prometheus
// text format at GET /metrics; Config.EnablePprof additionally mounts
// the net/http/pprof profiling endpoints under /debug/pprof/.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"auditgame"
	"auditgame/internal/fault"
	"auditgame/internal/telemetry"
)

// Config wires a Server.
type Config struct {
	// Auditor is the bound session the server fronts. Required.
	Auditor *auditgame.Auditor
	// PolicyPath is the JSON policy artifact to serve. When set, the
	// server loads it at startup (if present) and hot-reloads it when
	// its mtime changes or on SIGHUP.
	PolicyPath string
	// PollInterval is the artifact mtime poll period. Zero means 2s;
	// negative disables polling (SIGHUP reload still works).
	PollInterval time.Duration
	// SolveTimeout caps each /v1/solve job. Zero means the job runs
	// until done or cancelled; a request's timeout_seconds overrides
	// for that job.
	SolveTimeout time.Duration
	// CheckpointPath is the crash-safe last-known-good policy
	// checkpoint: every install (solve, refit, reload) writes the
	// serving policy and its version here atomically (temp file + fsync
	// + rename), and a restarting server restores it before taking
	// traffic, serving the pre-crash policy under its pre-crash
	// policy_version without waiting for a solve. Empty disables
	// checkpointing.
	CheckpointPath string
	// MaxConcurrentSolves caps solve/refit jobs executing at once;
	// excess submissions queue. Zero means 1 — the Auditor serializes
	// solves on its own lock anyway, so more concurrency only buys
	// contention.
	MaxConcurrentSolves int
	// MaxQueuedSolves bounds the backpressure queue behind the running
	// jobs; a submission past the bound is rejected with 429 and a
	// Retry-After. Zero means 4; negative means no queue (reject
	// whenever all slots are busy).
	MaxQueuedSolves int
	// JobTTL evicts finished jobs from the table this long after they
	// finish, bounding the table over a long-lived process; /healthz
	// reports the eviction count. Zero means 1h; negative keeps
	// finished jobs forever.
	JobTTL time.Duration
	// StuckJobTimeout is the watchdog bound: a job still running past
	// it has its context cancelled (the solve returns within one
	// pricing round and the job finishes as cancelled). Zero means 15m;
	// negative disables reaping.
	StuckJobTimeout time.Duration
	// MaxBodyBytes caps request bodies. Zero means 1 MiB.
	MaxBodyBytes int64
	// ReadHeaderTimeout and IdleTimeout harden Run's listener against
	// slow-header clients and idle connection pileups. Zero means 5s
	// and 120s.
	ReadHeaderTimeout time.Duration
	IdleTimeout       time.Duration
	// Logger receives the server's structured log records; nil means
	// slog.Default(). Every request carries a request_id attribute
	// (echoed as the X-Request-Id response header), and job lifecycle
	// events carry the job_id. Per-request access logs emit at Debug.
	Logger *slog.Logger
	// Telemetry, when set, instruments the serving loop into the
	// registry and mounts GET /metrics on the handler. Nil disables
	// instrumentation entirely — the request and select paths pay
	// nothing.
	Telemetry *telemetry.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler. Off by default: profiling endpoints can stall the
	// process (heap dumps, 30s CPU profiles) and belong behind an
	// operator's explicit flag.
	EnablePprof bool
}

// Server is the HTTP policy server. Create with New, mount Handler, or
// let Run own the listener and the reload machinery.
type Server struct {
	cfg   Config
	aud   *auditgame.Auditor
	log   *slog.Logger
	tel   *serverMetrics
	start time.Time
	jobs  *jobTable

	// reqSeq numbers requests for the request_id attribute when the
	// client did not send an X-Request-Id of its own.
	reqSeq atomic.Uint64

	// reloadMu serializes artifact reloads; lastMod/lastSize fingerprint
	// the last successfully loaded artifact.
	reloadMu sync.Mutex
	lastMod  time.Time
	lastSize int64

	// baseCtx parents every solve job so Shutdown cancels them; set by
	// Run, defaults to Background for handler-only use.
	baseMu  sync.Mutex
	baseCtx context.Context

	// refitMu guards refitJobID, the most recent drift-triggered refit
	// job: a drift firing while it is still running joins it instead of
	// stacking a second solve.
	refitMu    sync.Mutex
	refitJobID string

	// ckptMu guards the checkpoint machinery's observable state:
	// restoredVersion is non-zero when this process started by restoring
	// a checkpoint (and still serves it un-superseded → /healthz says
	// "recovered"); ckptErr is the last checkpoint-write failure
	// (→ "degraded" until a later write succeeds).
	ckptMu          sync.Mutex
	restoredVersion uint64
	ckptErr         error
}

// New validates cfg and builds the server. If cfg.PolicyPath exists, the
// artifact is loaded immediately; a missing file is not an error (the
// policy can arrive later via reload or a solve).
func New(cfg Config) (*Server, error) {
	if cfg.Auditor == nil {
		return nil, fmt.Errorf("serve: Config.Auditor is required")
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 2 * time.Second
	}
	if cfg.MaxConcurrentSolves == 0 {
		cfg.MaxConcurrentSolves = 1
	}
	if cfg.MaxQueuedSolves == 0 {
		cfg.MaxQueuedSolves = 4
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = time.Hour
	}
	if cfg.StuckJobTimeout == 0 {
		cfg.StuckJobTimeout = 15 * time.Minute
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.ReadHeaderTimeout == 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 120 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		aud:     cfg.Auditor,
		log:     cfg.Logger,
		start:   time.Now(),
		jobs:    newJobTable(cfg.MaxConcurrentSolves, cfg.MaxQueuedSolves, cfg.JobTTL, cfg.StuckJobTimeout),
		baseCtx: context.Background(),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	// Instrumentation wires before the checkpoint restore and artifact
	// load so those startup paths already record (policy installs,
	// reloads, checkpoint writes).
	if cfg.Telemetry != nil {
		s.tel = newServerMetrics(cfg.Telemetry, s)
		s.jobs.onFinish = s.tel.noteJobFinished
	}

	// Crash recovery: restore the last-known-good checkpoint before the
	// artifact load, so a restarting server serves the pre-crash policy
	// under its pre-crash version before any solve runs. Every later
	// install writes the checkpoint through the Auditor's install hook.
	restored := false
	if cfg.CheckpointPath != "" {
		switch v, err := s.restoreCheckpoint(); {
		case err == nil && v > 0:
			restored = true
			s.log.Info("restored checkpointed policy", "policy_version", v, "path", cfg.CheckpointPath)
		case err != nil:
			return nil, fmt.Errorf("serve: checkpoint restore: %w", err)
		}
		s.aud.OnInstall(s.writeCheckpoint)
		// Seed the checkpoint from a policy that was installed before the
		// hook existed (a startup solve runs before the server is built);
		// without this, a crash before the next install would lose it.
		if p, v := s.aud.CurrentPolicy(); p != nil && !restored {
			s.writeCheckpoint(p, v)
		}
	}

	if cfg.PolicyPath != "" {
		_, err := os.Stat(cfg.PolicyPath)
		switch {
		case err == nil && restored:
			// The checkpoint is written on every install, so it is at
			// least as fresh as the artifact this process wrote; record
			// the artifact's fingerprint as seen so the mtime poll does
			// not immediately reinstall it over the restored policy. An
			// artifact that changes after startup (a real deploy) still
			// reloads normally.
			if fi, serr := os.Stat(cfg.PolicyPath); serr == nil {
				s.lastMod, s.lastSize = fi.ModTime(), fi.Size()
			}
		case err == nil:
			if err := s.Reload(); err != nil {
				return nil, fmt.Errorf("serve: initial policy load: %w", err)
			}
		case errors.Is(err, os.ErrNotExist):
			// Not arrived yet; the policy can come later via reload or
			// a solve.
		default:
			return nil, fmt.Errorf("serve: policy artifact: %w", err)
		}
	}
	return s, nil
}

// Handler returns the route table. It is safe to mount under a parent
// mux or hand to httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/select", "/v1/select", s.handleSelect)
	s.route(mux, "GET /v1/policy", "/v1/policy", s.handlePolicy)
	s.route(mux, "POST /v1/observe", "/v1/observe", s.handleObserve)
	s.route(mux, "GET /v1/drift", "/v1/drift", s.handleDrift)
	s.route(mux, "POST /v1/solve", "/v1/solve", s.handleSolve)
	s.route(mux, "GET /v1/solve/{id}", "/v1/solve/{id}", s.handleJobStatus)
	s.route(mux, "DELETE /v1/solve/{id}", "/v1/solve/{id}", s.handleJobCancel)
	s.route(mux, "GET /healthz", "/healthz", s.handleHealth)
	if s.cfg.Telemetry != nil {
		mux.Handle("GET /metrics", s.cfg.Telemetry.Handler())
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.contain(mux)
}

// route mounts one endpoint, instrumented when telemetry is attached.
// path is the metrics label — the route pattern's path, so the
// histogram's cardinality is the route table, not the request space.
func (s *Server) route(mux *http.ServeMux, pattern, path string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, s.tel.instrument(path, h))
}

// logCtxKey carries the request-scoped logger (request_id attached)
// through the request context.
type logCtxKey struct{}

// reqLog returns the request-scoped logger installed by contain, or the
// server logger when the handler runs outside it (direct tests).
func (s *Server) reqLog(r *http.Request) *slog.Logger {
	if lg, ok := r.Context().Value(logCtxKey{}).(*slog.Logger); ok {
		return lg
	}
	return s.log
}

// contain is the outermost request guard: the serve.handler fault point
// plus a recover barrier, so a panicking handler answers 500 instead of
// killing the connection (and, for panics escaping a handler goroutine,
// the process). It also owns the request envelope: the status capture
// shared with the route instrumentation, the request id (client-supplied
// X-Request-Id or a generated sequence number, echoed back on the
// response), the request-scoped logger, and the Debug access log.
func (s *Server) contain(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = fmt.Sprintf("r-%d", s.reqSeq.Add(1))
		}
		sw.Header().Set("X-Request-Id", rid)
		lg := s.log.With("request_id", rid)
		r = r.WithContext(context.WithValue(r.Context(), logCtxKey{}, lg))
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				lg.Error("panic in handler", "method", r.Method, "path", r.URL.Path, "panic", rec)
				// If the handler already wrote headers this write is a
				// no-op on the status; the body still notes the failure.
				writeErr(sw, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
			lg.Debug("request", "method", r.Method, "path", r.URL.Path,
				"status", sw.status(), "dur_ms", float64(time.Since(start).Microseconds())/1000)
		}()
		if err := fault.Inject(fault.HTTPHandler); err != nil {
			writeErr(sw, http.StatusInternalServerError, err)
			return
		}
		h.ServeHTTP(sw, r)
	})
}

// Run serves on addr until ctx is cancelled, then shuts down gracefully
// (in-flight requests finish; pending solve jobs are cancelled). It owns
// the reload machinery: the artifact mtime poll and SIGHUP.
func (s *Server) Run(ctx context.Context, addr string) error {
	s.baseMu.Lock()
	s.baseCtx = ctx
	s.baseMu.Unlock()

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}

	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	go s.watch(watchCtx)
	go s.jobs.watchdog(watchCtx, 15*time.Second)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	s.log.Info("listening", "addr", addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutCtx)
	}
}

// watch hot-reloads the policy artifact: a PollInterval mtime poll plus
// SIGHUP for operators who want an immediate, explicit reload.
func (s *Server) watch(ctx context.Context) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	var tick <-chan time.Time
	if s.cfg.PolicyPath != "" && s.cfg.PollInterval > 0 {
		t := time.NewTicker(s.cfg.PollInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			s.log.Info("SIGHUP, reloading policy")
			if err := s.Reload(); err != nil {
				s.log.Warn("reload failed, keeping current policy", "err", err)
			}
		case <-tick:
			changed, err := s.reloadIfModified()
			if err != nil {
				s.log.Warn("reload failed, keeping current policy", "err", err)
			} else if changed {
				s.log.Info("policy artifact changed on disk, reloaded",
					"policy_version", s.aud.PolicyVersion())
			}
		}
	}
}

// Reload unconditionally loads the artifact and swaps it in atomically.
// On any error the current policy keeps serving.
func (s *Server) Reload() error {
	if s.cfg.PolicyPath == "" {
		return fmt.Errorf("serve: no policy path configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.loadLocked()
}

// reloadIfModified reloads when the artifact's (mtime, size)
// fingerprint differs from the last loaded one. Any difference counts —
// not just a newer mtime — so a deploy that atomically renames a
// pre-staged file with an older timestamp still loads.
func (s *Server) reloadIfModified() (bool, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	fi, err := os.Stat(s.cfg.PolicyPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil // not arrived yet; keep serving
		}
		return false, err
	}
	if fi.ModTime().Equal(s.lastMod) && fi.Size() == s.lastSize {
		return false, nil
	}
	if err := s.loadLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// loadLocked reads and installs the artifact. Callers hold reloadMu.
func (s *Server) loadLocked() error {
	err := s.loadArtifactLocked()
	s.tel.noteReload(err)
	return err
}

func (s *Server) loadArtifactLocked() error {
	f, err := os.Open(s.cfg.PolicyPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if err := s.aud.ReloadPolicy(f); err != nil {
		return err
	}
	s.lastMod = fi.ModTime()
	s.lastSize = fi.Size()
	return nil
}

// --- handlers ---

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if !s.decode(w, r, &req) {
		return
	}
	sel, version, err := s.aud.SelectVersioned(req.Counts)
	if err != nil {
		status := http.StatusBadRequest
		if s.aud.Policy() == nil {
			// No policy installed yet: the request was fine, the
			// server just is not ready to answer it.
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, SelectResponse{
		V:             APIVersion,
		PolicyVersion: version,
		Ordering:      sel.Ordering,
		Chosen:        sel.Chosen,
		Spent:         sel.Spent,
		Audited:       sel.Audited(),
	})
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	p, version := s.aud.CurrentPolicy()
	if p == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("no policy installed"))
		return
	}
	writeJSON(w, http.StatusOK, PolicyResponse{
		V:             APIVersion,
		PolicyVersion: version,
		Policy:        p,
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	timeout := s.cfg.SolveTimeout
	if req.TimeoutSeconds > 0 { // NaN fails this check and keeps the default
		const maxSeconds = float64(math.MaxInt64 / int64(time.Second))
		ts := math.Min(req.TimeoutSeconds, maxSeconds) // avoid Duration overflow going negative
		timeout = time.Duration(ts * float64(time.Second))
	}

	ctx, cancel := s.jobContext(timeout)
	j, err := s.jobs.submit("solve", cancel, func(j *job) {
		defer cancel()
		if err := fault.Inject(fault.JobRunner); err != nil {
			j.finish(jobResult{status: jobError, err: err.Error(), failureKind: string(auditgame.ClassifyFailure(err))})
			s.log.Warn("solve job failed", "job_id", j.id, "err", err)
			return
		}
		res, err := s.aud.SolveDetailed(ctx)
		kind := auditgame.ClassifyFailure(err)
		switch kind {
		case "":
			j.finish(jobResult{status: jobDone, policyVersion: res.PolicyVersion, expectedLoss: res.Policy.ExpectedLoss, warm: res.Warm, stats: res.Stats, trace: res.Trace})
			s.tel.recordSolveWork(res.Stats, nil)
			s.log.Info("solve job done", "job_id", j.id, "loss", res.Policy.ExpectedLoss, "policy_version", res.PolicyVersion)
		case auditgame.FailCancelled, auditgame.FailTimeout:
			j.finish(jobResult{status: jobCancelled, err: err.Error(), failureKind: string(kind)})
			s.log.Info("solve job cancelled", "job_id", j.id, "err", err)
		default:
			j.finish(jobResult{status: jobError, err: err.Error(), failureKind: string(kind)})
			s.log.Warn("solve job failed", "job_id", j.id, "failure_kind", string(kind), "err", err)
		}
	})
	if err != nil {
		cancel()
		// Backpressure: the queue is full. 429 with a Retry-After is the
		// contract — clients back off instead of stacking solves.
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	s.tel.noteJobSubmitted("solve")
	s.reqLog(r).Info("solve job submitted", "job_id", j.id)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// jobContext derives a job's context from the server's base context,
// deadline-bounded when timeout > 0.
func (s *Server) jobContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	s.baseMu.Lock()
	base := s.baseCtx
	s.baseMu.Unlock()
	if timeout > 0 {
		return context.WithTimeout(base, timeout)
	}
	return context.WithCancel(base)
}

// handleObserve feeds one period's realized counts to the drift
// tracker. When the tracker fires, the re-solve runs as a background
// job on the same runner /v1/solve uses, and its id is returned for
// polling.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if !s.decode(w, r, &req) {
		return
	}
	dec, err := s.aud.Observe(req.Counts)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, auditgame.ErrNoTracker) {
			// The request was fine; this server just isn't configured
			// to track drift (-refit off).
			status = http.StatusConflict
		}
		writeErr(w, status, err)
		return
	}
	s.tel.noteDrift(dec.Checked, dec.Drift)
	resp := ObserveResponse{
		V:       APIVersion,
		Period:  dec.Period,
		Checked: dec.Checked,
		Drift:   dec.Drift,
		Reason:  dec.Reason,
	}
	if dec.Drift {
		resp.RefitJobID = s.startRefit()
		s.reqLog(r).Info("drift fired", "period", dec.Period, "reason", dec.Reason, "refit_job_id", resp.RefitJobID)
	}
	writeJSON(w, http.StatusOK, resp)
}

// startRefit launches the drift-triggered re-solve as an async job and
// returns its id. Single-flight: a firing that lands while a refit job
// is still active joins that job. The refit itself runs through
// RefitWithRetry, so transient failures back off and retry, and repeated
// failures open the session's circuit breaker (visible on /healthz and
// /v1/drift) instead of hammering the solver. A full job queue drops the
// firing (returns ""): the tracker will fire again on later drift.
func (s *Server) startRefit() string {
	s.refitMu.Lock()
	defer s.refitMu.Unlock()
	if s.refitJobID != "" {
		if j, ok := s.jobs.get(s.refitJobID); ok && j.active() {
			return s.refitJobID
		}
	}
	ctx, cancel := s.jobContext(s.cfg.SolveTimeout)
	j, err := s.jobs.submit("refit", cancel, func(j *job) {
		defer cancel()
		if err := fault.Inject(fault.JobRunner); err != nil {
			j.finish(jobResult{status: jobError, err: err.Error(), failureKind: string(auditgame.ClassifyFailure(err))})
			s.log.Warn("refit job failed", "job_id", j.id, "err", err)
			return
		}
		out, rerr := s.aud.RefitWithRetry(ctx)
		kind := auditgame.ClassifyFailure(rerr)
		switch {
		case rerr == nil && out.Installed:
			// Persist before reporting done: a client that sees done
			// and then reads the artifact, or a reload in between, must
			// find the refit policy, not the one it replaced.
			s.persistCurrentPolicy()
			j.finish(jobResult{status: jobDone, policyVersion: out.PolicyVersion, expectedLoss: out.NewLoss, detail: out.Reason, outcome: out.Outcome, warm: out.Warm, stats: out.Stats, trace: out.Trace})
			s.tel.recordRefitOutcome(out.Outcome)
			s.tel.recordSolveWork(out.Stats, out.Warm)
			s.log.Info("refit job installed policy", "job_id", j.id,
				"policy_version", out.PolicyVersion, "loss", out.NewLoss,
				"warm", out.Warm != nil && out.Warm.Warm)
		case rerr == nil:
			j.finish(jobResult{status: jobDone, expectedLoss: out.NewLoss, detail: out.Reason, outcome: out.Outcome, warm: out.Warm, stats: out.Stats, trace: out.Trace})
			s.tel.recordRefitOutcome(out.Outcome)
			s.tel.recordSolveWork(out.Stats, out.Warm)
			s.log.Info("refit job kept the current policy", "job_id", j.id, "outcome", out.Outcome, "reason", out.Reason)
		case errors.Is(rerr, auditgame.ErrBreakerOpen):
			j.finish(jobResult{status: jobError, err: rerr.Error(), failureKind: string(kind), detail: "refit circuit breaker open; serving the incumbent policy"})
			s.log.Warn("refit job rejected", "job_id", j.id, "err", rerr)
		case kind == auditgame.FailCancelled, kind == auditgame.FailTimeout:
			j.finish(jobResult{status: jobCancelled, err: rerr.Error(), failureKind: string(kind)})
			s.log.Info("refit job cancelled", "job_id", j.id, "err", rerr)
		default:
			j.finish(jobResult{status: jobError, err: rerr.Error(), failureKind: string(kind)})
			s.log.Warn("refit job failed", "job_id", j.id, "failure_kind", string(kind), "err", rerr)
		}
	})
	if err != nil {
		cancel()
		s.tel.noteRefitDropped()
		s.log.Warn("drift fired but the job queue is full; refit dropped")
		return ""
	}
	s.tel.noteJobSubmitted("refit")
	s.refitJobID = j.id
	return j.id
}

// persistCurrentPolicy writes the serving policy to the configured
// artifact path (atomic create + rename), so a SIGHUP reload or a
// process restart does not revert the server to a stale pre-refit
// artifact. The watch fingerprint is updated under reloadMu so the
// mtime poll does not re-install our own write as yet another version.
// Failures are logged, never fatal: the refit is already serving from
// memory.
func (s *Server) persistCurrentPolicy() {
	if s.cfg.PolicyPath == "" {
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	p, version := s.aud.CurrentPolicy()
	if p == nil {
		return
	}
	tmp := s.cfg.PolicyPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		s.log.Warn("persisting refit policy failed", "err", err)
		return
	}
	err = p.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.cfg.PolicyPath)
	}
	if err != nil {
		os.Remove(tmp)
		s.log.Warn("persisting refit policy failed", "err", err)
		return
	}
	if fi, err := os.Stat(s.cfg.PolicyPath); err == nil {
		s.lastMod, s.lastSize = fi.ModTime(), fi.Size()
	}
	s.log.Info("refit policy persisted", "policy_version", version, "path", s.cfg.PolicyPath)
}

// handleDrift reports the drift tracker's state.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	_, version := s.aud.CurrentPolicy()
	resp := DriftResponse{V: APIVersion, PolicyVersion: version}
	if tr := s.aud.Tracker(); tr != nil {
		resp.Attached = true
		st := tr.State()
		resp.State = &st
		h := s.aud.RefitHealth()
		resp.RefitHealth = &h
		s.refitMu.Lock()
		resp.RefitJobID = s.refitJobID
		s.refitMu.Unlock()
		if resp.RefitJobID != "" {
			if j, ok := s.jobs.get(resp.RefitJobID); ok {
				resp.LastRefitWarm = j.warmStats()
				resp.LastRefitOutcome = j.lastOutcome()
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	j.finishIfQueued()
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	p, version := s.aud.CurrentPolicy()
	running, queued, evicted, reaped := s.jobs.stats()
	restoredVersion, ckptErr := s.checkpointState()

	resp := HealthResponse{
		V:             APIVersion,
		Status:        healthOK,
		PolicyLoaded:  p != nil,
		PolicyVersion: version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		JobsRunning:   running,
		JobsQueued:    queued,
		JobsEvicted:   evicted,
		JobsReaped:    reaped,
	}
	if at := s.aud.PolicyInstalledAt(); !at.IsZero() {
		resp.PolicyAgeSeconds = time.Since(at).Seconds()
	}
	if s.aud.Tracker() != nil {
		h := s.aud.RefitHealth()
		resp.RefitHealth = &h
	}
	if ckptErr != nil {
		resp.CheckpointError = ckptErr.Error()
	}
	if restoredVersion != 0 {
		resp.RestoredFromCheckpoint = true
	}
	switch {
	case ckptErr != nil, resp.RefitHealth != nil && resp.RefitHealth.BreakerOpen:
		// Still serving, but a containment mechanism is engaged: the
		// last checkpoint write failed (a crash now would lose the
		// newest policy) or the refit breaker has parked the tracker.
		resp.Status = healthDegraded
	case restoredVersion != 0:
		// Serving a crash-restored checkpoint that no fresh install has
		// superseded yet.
		resp.Status = healthRecovered
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- plumbing ---

// decode parses a JSON body and enforces the wire version and the body
// cap. It writes the error response itself and reports whether the
// caller should proceed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(dst); err != nil && !errors.Is(err, io.EOF) {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		// An empty body is the zero-value request: every field of every
		// request type is optional.
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	v := 0
	switch req := dst.(type) {
	case *SelectRequest:
		v = req.V
	case *SolveRequest:
		v = req.V
	case *ObserveRequest:
		v = req.V
	}
	if v > APIVersion {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unsupported api version %d (server speaks %d)", v, APIVersion))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		// Headers are gone; nothing to do but note it.
		slog.Default().Warn("serve: encoding response failed", "err", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{V: APIVersion, Error: err.Error()})
}
