package main

import (
	"fmt"
	"runtime"
	"time"

	"auditgame/internal/dist"
	"auditgame/internal/sim"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// sim-seasonal runs the closed-loop simulator's seasonal scenario over a
// 360-period horizon under each refit strategy (static, cron, drift), for
// scenario seeds 1..simSeeds, cycling until the window closes. A pass's
// cost depends on its scenario seed (how often the drift strategy
// refits) by more than the run-to-run noise, so every run uses the same
// seeds — the run seed only rotates their order — and pass times are
// reported as the mean over the seeds of each seed's fast (p10) pass. It
// measures the event kernel, the attacker and the
// hosted session's observe/select/refit loop; the strategies' cumulative
// regret guards quality, since a solver change that moves policies moves
// it.
const (
	simScenario = "seasonal"
	simHorizon  = 360
	simSeeds    = 8
)

// simHost stamps the scenario's offline game and solves its initial
// policy on a new sim.Host — the set-up sim.Run performs before its first
// period — timing the layers into t.
func simHost(r *run, seed int64, t *setupTimes) error {
	scn, ok := sim.GetScenario(simScenario)
	if !ok {
		return fmt.Errorf("no %q scenario", simScenario)
	}
	t0 := time.Now()
	streams, err := scn.Streams()
	if err != nil {
		return err
	}
	weekday, _ := workload.SeasonalRegimes()
	dists := make([]dist.Distribution, len(streams))
	for i, s := range streams {
		if dists[i], err = s.Base.Build(); err != nil {
			return err
		}
	}
	g, _, err := workload.Scaled{
		Templates: weekday, Resolved: dists, Entities: scn.Entities, AlertTypes: len(streams),
		Victims: scn.Victims, Profiles: scn.Profiles, Seed: seed,
	}.Build(workload.Scale{})
	if err != nil {
		return err
	}
	var full float64
	for _, at := range g.Types {
		full += at.Dist.Mean() * at.Cost
	}
	t1 := time.Now()
	_, err = sim.NewHost(r.ctx, sim.HostConfig{
		Game: g, Budget: scn.BudgetFraction * full, Strategy: sim.StrategyDrift,
		CronEvery: scn.CronEvery, Tracker: scn.Tracker, BankSize: scn.BankSize, Seed: seed,
	})
	t.build += t1.Sub(t0).Seconds()
	t.instance += time.Since(t1).Seconds()
	return err
}

// simPass is one scenario run's key, for the repeat checks.
type simPass struct {
	seed     int64
	strategy sim.Strategy
}

func runSimSeasonal(r *run) error {
	seeds := make([]int64, simSeeds)
	for i := range seeds {
		seeds[i] = ((r.seed+int64(i))%simSeeds+simSeeds)%simSeeds + 1
	}
	// Set-ups are spread over the run, one before every fourth round of
	// passes, for the reason given in runPaperSynA.
	var reps []setupTimes
	var setup []float64
	setUp := func() error {
		var t setupTimes
		for _, seed := range seeds {
			if err := simHost(r, seed, &t); err != nil {
				return err
			}
		}
		reps = append(reps, t)
		setup = append(setup, t.total())
		return nil
	}

	hashes := map[simPass]string{}
	first := map[simPass]*sim.Result{}
	times := map[simPass][]float64{}
	var staticAlloc []float64
	var reg *telemetry.Registry
	var tracedStatic []float64
	if r.traced {
		reg = telemetry.New()
	}
	deadline := time.Now().Add(r.seconds)
	for iter := 0; until(deadline, iter, simSeeds); iter++ {
		seed := seeds[iter%simSeeds]
		if iter%4 == 0 {
			if err := setUp(); err != nil {
				return err
			}
		}
		r.host.sample()
		for _, st := range sim.Strategies() {
			key := simPass{seed, st}
			a0 := allocBytes()
			var res *sim.Result
			d, err := timeIt(func() (err error) {
				res, err = sim.Run(r.ctx, simScenario, sim.Options{Horizon: simHorizon, Seed: seed, Strategy: st})
				return err
			})
			alloc := allocBytes() - a0
			if err == nil {
				if h, ok := hashes[key]; !ok {
					hashes[key], first[key] = res.TraceHash, res
				} else if h != res.TraceHash {
					err = fmt.Errorf("seed %d %s: trace hash %s differs from this run's first pass %s", seed, st, res.TraceHash, h)
				}
			}
			r.op(err)
			if err != nil {
				continue
			}
			times[key] = append(times[key], d)
			if st == sim.StrategyStatic {
				staticAlloc = append(staticAlloc, float64(alloc))
			}
		}
		if reg != nil {
			// The traced pass: the same static run with the simulator's
			// telemetry counters attached.
			var err error
			d, _ := timeIt(func() error {
				_, err = sim.Run(r.ctx, simScenario, sim.Options{Horizon: simHorizon, Seed: seed, Strategy: sim.StrategyStatic, Telemetry: reg})
				return err
			})
			r.op(err)
			tracedStatic = append(tracedStatic, d)
		}
	}

	r.timing("setup_reps_s", setup, "s", 1)
	r.set("setup_s", median(setup), "s", fmt.Sprintf("stamp the host game and solve its initial policy for each of the run's seeds; median of %d", len(setup)))
	var regret, roundS float64
	passS := map[sim.Strategy]float64{}
	for _, st := range sim.Strategies() {
		var all []float64
		var sum float64
		for _, seed := range seeds {
			key := simPass{seed, st}
			all = append(all, times[key]...)
			passS[st] += quantile(times[key], fastQ) / simSeeds
			if res := first[key]; res != nil {
				sum += res.CumRegret
			}
		}
		r.timing(fmt.Sprintf("sim_pass_s.%s", st), all, "s", 1)
		r.line(fmt.Sprintf("sim_pass_mean_s.%s", st), passS[st], "s", "mean over the seeds of each seed's p10 pass")
		roundS += passS[st]
		r.line(fmt.Sprintf("sim_cum_regret.%s", st), sum/simSeeds, "loss", "mean over the run's scenario seeds")
		regret += sum / simSeeds
	}
	r.line("sim_cum_regret", regret, "loss", "summed over strategies; deterministic per seed")
	r.set("primary_ms", passS[sim.StrategyStatic]*1e3, "ms", "one 360-period static-strategy pass, mean of per-seed p10s")
	r.set("secondary_ms", passS[sim.StrategyDrift]*1e3, "ms", "one 360-period drift-strategy pass (tracker + refits), mean of per-seed p10s")
	r.set("throughput_per_s", float64(simHorizon*len(sim.Strategies()))/roundS, "1/s",
		"sim_periods_per_s: simulated periods per second over one p10 pass of each strategy")
	r.set("alloc_mb_per_op", median(staticAlloc)/1e6, "MB", "bytes allocated per static pass")

	if reg != nil {
		reportSetup(r, reps, nil)
		var events, installs, fires, n float64
		for key, res := range first {
			events += float64(res.Events)
			if key.strategy == sim.StrategyDrift {
				installs += float64(res.RefitsInstalled)
				fires += float64(res.DriftFires)
				n++
			}
		}
		r.set("sim.events", events/float64(len(first)), "count", "events dispatched per pass")
		r.set("sim.refits_installed", installs/n, "count", "per drift-strategy pass")
		r.set("sim.drift_fires", fires/n, "count", "per drift-strategy pass")
		r.set("sim.cum_regret", regret, "loss", "summed over strategies")
		r.set("sim.events_per_s_procs1", eventsPerSecondOneProc(r, seeds[0]), "1/s", "static passes at GOMAXPROCS=1")
		r.set("trace.overhead_frac", quantile(tracedStatic, fastQ)/passS[sim.StrategyStatic]-1, "frac",
			"static pass with telemetry counters ÷ without − 1")
	}
	return nil
}

// eventsPerSecondOneProc runs static passes for about a second with one
// processor and returns the kernel's dispatch rate.
func eventsPerSecondOneProc(r *run, seed int64) float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var events, secs float64
	for start := time.Now(); time.Since(start) < time.Second; {
		var res *sim.Result
		var err error
		d, _ := timeIt(func() error {
			res, err = sim.Run(r.ctx, simScenario, sim.Options{Horizon: simHorizon, Seed: seed, Strategy: sim.StrategyStatic})
			return err
		})
		r.op(err)
		if err != nil {
			return 0
		}
		events += float64(res.Events)
		secs += d
	}
	return events / secs
}
