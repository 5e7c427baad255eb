package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"auditgame"
	"auditgame/internal/serve"
	"auditgame/internal/telemetry"
)

// runServe starts the long-running HTTP policy server: daily counts in
// (POST /v1/select), audit selections out, with hot policy reload from
// the JSON artifact (mtime poll + SIGHUP) and cancellable async
// re-solves (POST /v1/solve). With -refit, counts posted to
// POST /v1/observe feed a drift tracker that re-solves and installs a
// fresh policy when the live workload moves away from the model the
// serving policy assumes (GET /v1/drift shows the detector state). Any
// registered workload is deployable.
//
//	auditsim serve -workload syna -budget 10 -solve-on-start -policy policy.json
//	auditsim serve -workload syna -budget 10 -solve-on-start -refit -refit-window 28
//	auditsim serve -policy policy.json                  # serve an existing artifact
//	kill -HUP <pid>                                     # explicit hot reload
func runServe(args []string) error {
	fs := flag.NewFlagSet("auditsim serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	policyPath := fs.String("policy", "", "policy JSON artifact to serve and hot-reload")
	workload := fs.String("workload", "", "registered workload to bind for /v1/solve (empty = policy-only)")
	entities := fs.Int("entities", 0, "workload scale: entities (0 = scenario default)")
	types := fs.Int("types", 0, "workload scale: alert types (0 = scenario default)")
	victims := fs.Int("victims", 0, "workload scale: victims (0 = scenario default)")
	seed := fs.Int64("seed", 1, "workload seed")
	budget := fs.Float64("budget", 0, "audit budget")
	frac := fs.Float64("budget-frac", 0, "budget as a fraction of the expected full audit cost")
	method := fs.String("method", "ishm", "solver: ishm, cggs, or exact")
	eps := fs.Float64("eps", 0.1, "ISHM shrink step")
	bank := fs.Int("bank", 0, "Monte-Carlo bank size (0 = default)")
	poll := fs.Duration("poll", 2*time.Second, "policy artifact mtime poll interval (<0 disables)")
	solveTimeout := fs.Duration("solve-timeout", 0, "default deadline for /v1/solve jobs (0 = none)")
	checkpoint := fs.String("checkpoint", "", "crash-safe last-known-good policy checkpoint file (written on every install, restored on start)")
	maxSolves := fs.Int("max-solves", 0, "max solve/refit jobs running at once (0 = 1)")
	maxQueued := fs.Int("max-queued", 0, "max solve jobs queued behind the running ones before 429 (0 = 4, <0 none)")
	jobTTL := fs.Duration("job-ttl", 0, "evict finished solve jobs after this long (0 = 1h, <0 keep forever)")
	stuckTimeout := fs.Duration("stuck-timeout", 0, "watchdog: cancel jobs still running after this long (0 = 15m, <0 disables)")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes (0 = 1MiB)")
	solveOnStart := fs.Bool("solve-on-start", false, "solve the workload before listening (writes -policy if set)")
	refit := fs.Bool("refit", false, "track counts posted to /v1/observe and re-solve when the workload drifts (needs -workload)")
	refitWindow := fs.Int("refit-window", 28, "refit: sliding-window size in periods")
	refitCadence := fs.Int("refit-cadence", 1, "refit: run the drift detector every N observed periods")
	refitThreshold := fs.Float64("refit-threshold", 0.2, "refit: total-variation drift threshold in (0,1]")
	refitMinInterval := fs.Int("refit-min-interval", 0, "refit: min periods between drift firings (0 = window/2, <0 disables)")
	refitCooldown := fs.Int("refit-cooldown", 0, "refit: quiet periods after an installed refit (0 = window/2, <0 disables)")
	refitMinDelta := fs.Float64("refit-min-delta", 0.01, "refit: relative loss improvement a refit policy must exceed to install (<0 always installs)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, or error (debug adds per-request access logs)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	var m auditgame.SolveMethod
	switch *method {
	case "ishm":
		m = auditgame.MethodISHM
	case "cggs":
		m = auditgame.MethodCGGS
	case "exact":
		m = auditgame.MethodExact
	default:
		return fmt.Errorf("serve: unknown -method %q (want ishm, cggs, or exact)", *method)
	}
	if *workload == "" && *policyPath == "" {
		return fmt.Errorf("serve: need -workload (to solve) or -policy (to serve an artifact), or both")
	}

	cfg := auditgame.AuditorConfig{
		Budget:         *budget,
		BudgetFraction: *frac,
		Method:         m,
		ISHM:           auditgame.ISHMConfig{Epsilon: *eps},
		Source:         auditgame.SourceOptions{BankSize: *bank, Seed: *seed + 1},
	}
	if *workload != "" {
		cfg.Workload = *workload
		cfg.Scale = auditgame.WorkloadScale{
			Entities: *entities, AlertTypes: *types, Victims: *victims, Seed: *seed,
		}
	}
	a, err := auditgame.NewAuditor(cfg)
	if err != nil {
		return err
	}

	if *refit {
		if *workload == "" {
			return fmt.Errorf("serve: -refit needs -workload (a policy-only server has nothing to re-solve)")
		}
		if !(*refitThreshold > 0 && *refitThreshold <= 1) {
			return fmt.Errorf("serve: -refit-threshold %v must be in (0, 1]", *refitThreshold)
		}
		g, err := a.Game()
		if err != nil {
			return err
		}
		det := auditgame.NewDistanceDetector()
		det.TVThreshold = *refitThreshold
		tr, err := auditgame.NewTracker(g.NumTypes(), auditgame.TrackerConfig{
			Window:      *refitWindow,
			Cadence:     *refitCadence,
			MinInterval: *refitMinInterval,
			Cooldown:    *refitCooldown,
			Detector:    det,
		})
		if err != nil {
			return err
		}
		if err := a.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: *refitMinDelta}); err != nil {
			return err
		}
		logger.Info("drift tracking on", "window", *refitWindow, "cadence", *refitCadence,
			"tv_threshold", *refitThreshold, "min_delta", *refitMinDelta)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *solveOnStart {
		if *workload == "" {
			return fmt.Errorf("serve: -solve-on-start needs -workload")
		}
		logger.Info("solving before listening", "workload", *workload, "method", *method)
		start := time.Now()
		pol, err := a.Solve(ctx)
		if err != nil {
			return fmt.Errorf("serve: startup solve: %w", err)
		}
		logger.Info("startup solve done", "seconds", time.Since(start).Seconds(), "loss", pol.ExpectedLoss)
		if *policyPath != "" {
			f, err := os.Create(*policyPath)
			if err != nil {
				return err
			}
			if err := pol.Save(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			logger.Info("wrote policy artifact", "path", *policyPath)
		}
	}

	s, err := serve.New(serve.Config{
		Auditor:             a,
		PolicyPath:          *policyPath,
		PollInterval:        *poll,
		SolveTimeout:        *solveTimeout,
		CheckpointPath:      *checkpoint,
		MaxConcurrentSolves: *maxSolves,
		MaxQueuedSolves:     *maxQueued,
		JobTTL:              *jobTTL,
		StuckJobTimeout:     *stuckTimeout,
		MaxBodyBytes:        *maxBody,
		Logger:              logger,
		Telemetry:           telemetry.New(),
		EnablePprof:         *enablePprof,
	})
	if err != nil {
		return err
	}
	err = s.Run(ctx, *addr)
	if errors.Is(err, http.ErrServerClosed) || errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// buildLogger constructs the serve command's structured logger from the
// -log-level and -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("serve: unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("serve: unknown -log-format %q (want text or json)", format)
}
