package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auditgame"
	"auditgame/internal/game"
	"auditgame/internal/refit"
	"auditgame/internal/serve"
	"auditgame/internal/telemetry"
	"auditgame/internal/workload"
)

// serve-mixed puts an in-process policy server on a loopback listener in
// front of a MethodCGGS session on a 20-type scaled game with a drift
// tracker attached, and drives it open loop from one process: /v1/select
// at a ladder of fixed rates and /v1/observe at a low fixed rate. While
// selects run at the reference rate, the observe stream steps a quarter
// of the types' counts by a few standard deviations every few tracker
// windows; each step fires drift once, and the refit job it launches
// competes with select traffic for the CPUs.
//
// The game, its realization bank and the observed counts are fixed
// (serveGameSeed), because the initial solve and every refit re-solve
// the game on a model fitted to the observed window, and their cost
// differs from game to game and window to window by more than the
// run-to-run noise. The observe stream cycles one block of serveWindow
// count rows, so every window holds the same counts: each up step is
// refit against one model and each down step against another, and the
// tracker's verdicts are deterministic. The seed drives the select
// bodies.
//
// The tracker checks once per full window (cadence = window = min fill)
// and each step lands on a window boundary, so the check that fires sees
// only post-step periods and the refit installs the new regime: exactly
// one install follows each step. The detector thresholds sit far above
// stationary noise (a 28-period window's mean moves 8 standard errors
// only on a real step), so no other check fires.
const (
	serveTypes     = 20
	serveEntities  = 1000
	serveBank      = 256
	serveGameSeed  = 1
	serveWindow    = 28  // tracker window, cadence and min fill, in periods
	serveStepEvery = 2   // windows between steps
	serveStepSD    = 3.0 // step size, in the type's count standard deviations
	observeRate    = 100.0
	refRate        = 1000.0 // the reference select rate
	refShare       = 0.6    // share of the window at the reference rate
	p99Limit       = 0.020  // seconds; the select latency limit on p99
	requestTimeout = 2 * time.Second
	// backlogSlack is how much backlog growth over a ladder step, in
	// seconds of offered load, still counts as keeping up: a GC pause
	// late in a step queues a few milliseconds of requests that the
	// workers then drain.
	backlogSlack = 0.005
)

// ladderRates are the select rates above the reference rate, each held
// for an equal share of the rest of the window. The top rate sits at
// about half of what two cores sustain over loopback, so that it passes
// on every run of a healthy commit and a regression shows as a lower
// passing rate.
var ladderRates = []float64{2000, 3000, 4000}

// serveSession is one started server with its session.
type serveSession struct {
	aud     *auditgame.Auditor
	game    *game.Game
	httpSrv *http.Server
	served  chan error
	url     string
	startS  float64 // seconds to start the server on its listener
}

// startServe builds the game, solves and installs the initial policy,
// attaches the tracker, and starts the server on a loopback listener,
// timing the game build and the session set-up into t.
func startServe(r *run, t *setupTimes) (*serveSession, error) {
	t0 := time.Now()
	g, _, err := workload.Scaled{Entities: serveEntities, AlertTypes: serveTypes, Seed: serveGameSeed}.Build(workload.Scale{})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	aud, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Game: g, BudgetFraction: 0.1, Method: auditgame.MethodCGGS,
		Source: auditgame.SourceOptions{BankSize: serveBank, Seed: serveGameSeed},
	})
	if err != nil {
		return nil, err
	}
	if _, err := aud.SolveDetailed(r.ctx); err != nil {
		return nil, fmt.Errorf("initial solve: %w", err)
	}
	tr, err := auditgame.NewTracker(serveTypes, auditgame.TrackerConfig{
		Window: serveWindow, MinFill: serveWindow, Cadence: serveWindow, Detector: serveDetector(),
	})
	if err != nil {
		return nil, err
	}
	// A negative gate installs every refit, so each step's install is
	// certain rather than dependent on how far the policy moved.
	if err := aud.AttachTracker(tr, auditgame.RefitOptions{MinLossDelta: -1}); err != nil {
		return nil, err
	}
	t2 := time.Now()
	srv, err := serve.New(serve.Config{
		Auditor: aud, Logger: slog.New(slog.DiscardHandler), Telemetry: telemetry.New(), PollInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSession{aud: aud, game: g, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	s.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	t.build += t1.Sub(t0).Seconds()
	t.instance += t2.Sub(t1).Seconds()
	s.startS = time.Since(t2).Seconds()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *serveSession) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serveDetector is the distance detector with thresholds far above
// stationary noise for a full 28-period window.
func serveDetector() *auditgame.DistanceDetector {
	d := auditgame.NewDistanceDetector()
	d.ZThreshold = 8
	d.VarRatio = 16
	d.TVThreshold = 0.4
	return d
}

// loadEvent is one scheduled request of the open-loop generator.
type loadEvent struct {
	due     float64 // seconds from the generator start
	observe bool
	body    []byte
	phase   int // index into the rate steps; observes carry -1
	period  int // tracker period an observe lands on (1-based)
}

// loadResult is what a worker recorded for one event.
type loadResult struct {
	latency
	worker  int
	version uint64 // select: the answering policy version
	drift   bool   // observe: the tracker fired
	jobID   string // observe: the refit job a firing launched
}

// plan is the generated load: the events in due order plus the step
// periods of the observe stream.
type plan struct {
	events []loadEvent
	rates  []float64 // select rate of each phase
	bounds []float64 // phase i runs over [bounds[i], bounds[i+1])
	steps  []int     // periods after which the observe regime changes
}

// makePlan builds the schedule for the session's game from the seed.
func makePlan(r *run, g *game.Game) (*plan, error) {
	rng := rand.New(rand.NewSource(r.seed))
	secs := r.seconds.Seconds()
	p := &plan{rates: append([]float64{refRate}, ladderRates...)}
	refEnd := refShare * secs
	p.bounds = []float64{0, refEnd}
	for i := range ladderRates {
		p.bounds = append(p.bounds, refEnd+(secs-refEnd)*float64(i+1)/float64(len(ladderRates)))
	}

	// Select bodies: counts drawn from the game's count model.
	bodies := make([][]byte, 64)
	for i := range bodies {
		b, err := json.Marshal(serve.SelectRequest{Counts: drawCounts(g, rng, nil)})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	for ph, rate := range p.rates {
		for t := p.bounds[ph]; t < p.bounds[ph+1]; t += 1 / rate {
			p.events = append(p.events, loadEvent{due: t, body: bodies[len(p.events)%len(bodies)], phase: ph})
		}
	}

	// Observe stream: one window of stationary draws, cycled, with a step
	// on a fixed quarter of the types every serveStepEvery windows while
	// the reference rate runs, leaving one window after the last step for
	// its check.
	fixed := rand.New(rand.NewSource(serveGameSeed))
	block := make([][]int, serveWindow)
	for i := range block {
		block[i] = drawCounts(g, fixed, nil)
	}
	shift := make([]int, serveTypes)
	for _, t := range fixed.Perm(serveTypes)[:serveTypes/4] {
		shift[t] = int(math.Round(serveStepSD * math.Sqrt(refit.Variance(g.Types[t].Dist))))
	}
	refPeriods := int(refEnd * observeRate)
	for s := 2 * serveWindow; s+2*serveWindow <= refPeriods; s += serveStepEvery * serveWindow {
		p.steps = append(p.steps, s)
	}
	n := int(secs * observeRate)
	for i := 0; i < n; i++ {
		period := i + 1
		up := false
		for _, s := range p.steps {
			if period > s {
				up = !up // steps alternate up and back down
			}
		}
		counts := append([]int(nil), block[i%serveWindow]...)
		if up {
			for t := range counts {
				counts[t] += shift[t]
			}
		}
		b, err := json.Marshal(serve.ObserveRequest{Counts: counts})
		if err != nil {
			return nil, err
		}
		p.events = append(p.events, loadEvent{due: float64(i) / observeRate, observe: true, body: b, phase: -1, period: period})
	}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].due < p.events[j].due })
	return p, nil
}

// drawCounts draws one period's counts from the game's model, plus add.
func drawCounts(g *game.Game, rng *rand.Rand, add []int) []int {
	c := make([]int, len(g.Types))
	for t, at := range g.Types {
		c[t] = at.Dist.Sample(rng)
		if add != nil {
			c[t] += add[t]
		}
	}
	return c
}

// generate runs the plan open loop against url: one scheduler goroutine
// releases each event when due, and nproc workers, each on its own
// keep-alive connection, send them. Observes all go through worker 0 so
// that the tracker sees them in order. Every request is timed from its
// due time. backlog samples the number of released-but-unsent requests
// at each select release, per select phase; alloc is the process's
// cumulative heap allocation when each phase's first select is released,
// with the total at the end appended.
func generate(url string, p *plan) (res []loadResult, backlog [][]int, alloc []uint64) {
	workers := runtime.NumCPU()
	// Each channel is buffered for every event it can carry, so the
	// scheduler never blocks and a slow server shows as backlog, not as
	// a stalled schedule.
	selCh := make(chan int, len(p.events))
	obsCh := make(chan int, len(p.events))
	res = make([]loadResult, len(p.events))
	backlog = make([][]int, len(p.rates))
	var released, started atomic.Int64

	var wg sync.WaitGroup
	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}}
			defer client.CloseIdleConnections()
			obs, sel := obsCh, selCh
			if w != 0 {
				obs = nil
			}
			do := func(i int) {
				started.Add(1)
				ev, rr := &p.events[i], &res[i]
				rr.worker, rr.Due, rr.Sent = w, ev.due, since()
				rr.Failed = !send(client, url, ev, rr)
				rr.Done = since()
			}
			for obs != nil || sel != nil {
				// Worker 0 sends every due observe before taking a select.
				select {
				case i, ok := <-obs:
					if !ok {
						obs = nil
					} else {
						do(i)
					}
					continue
				default:
				}
				select {
				case i, ok := <-obs:
					if !ok {
						obs = nil
						continue
					}
					do(i)
				case i, ok := <-sel:
					if !ok {
						sel = nil
						continue
					}
					do(i)
				}
			}
		}(w)
	}

	for i := range p.events {
		ev := &p.events[i]
		if wait := ev.due - since(); wait > 0 {
			preciseSleep(time.Duration(wait * float64(time.Second)))
		}
		n := released.Add(1)
		if ev.observe {
			obsCh <- i
		} else {
			if len(alloc) == ev.phase {
				alloc = append(alloc, allocBytes())
			}
			selCh <- i
			backlog[ev.phase] = append(backlog[ev.phase], int(n-started.Load()))
		}
	}
	close(selCh)
	close(obsCh)
	wg.Wait()
	return res, backlog, append(alloc, allocBytes())
}

// send issues one request and decodes the fields the checks need. It
// reports false for a transport error, a timeout, a non-200 answer or a
// malformed body.
func send(client *http.Client, url string, ev *loadEvent, rr *loadResult) bool {
	path := "/v1/select"
	if ev.observe {
		path = "/v1/observe"
	}
	resp, err := client.Post(url+path, "application/json", bytes.NewReader(ev.body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	if ev.observe {
		var o serve.ObserveResponse
		if json.Unmarshal(body, &o) != nil || o.Period != ev.period {
			return false
		}
		rr.drift, rr.jobID = o.Drift, o.RefitJobID
		return true
	}
	var s serve.SelectResponse
	if json.Unmarshal(body, &s) != nil || len(s.Ordering) != serveTypes {
		return false
	}
	rr.version = s.PolicyVersion
	return true
}

// getJSON fetches url into dst.
func getJSON(url string, dst any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// waitJob polls a refit job until it leaves the queued/running states.
func waitJob(url, id string) (*serve.JobResponse, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var j serve.JobResponse
		if err := getJSON(url+"/v1/solve/"+id, &j); err != nil {
			return nil, err
		}
		if j.Status != "queued" && j.Status != "running" {
			return &j, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("refit job %s still %s after 60s", id, j.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// gaugeEvery is how often the host gauge runs beside the load.
const gaugeEvery = 200 * time.Millisecond

// generateGauged runs generate with the host gauge sampled beside the
// load, so that the gauge sees the host as the requests do. The kernel
// takes about 5 ms of one core in each 200 ms, under 2 % of the two.
func generateGauged(r *run, url string, p *plan) ([]loadResult, [][]int, []uint64) {
	r.host.sample() // builds the kernel's inputs before the load starts
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(gaugeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.host.sample()
			}
		}
	}()
	res, backlog, alloc := generate(url, p)
	close(stop)
	<-done
	return res, backlog, alloc
}

func runServeMixed(r *run) error {
	var reps []setupTimes
	var setup, serverStart []float64
	var s *serveSession
	for i := 0; i < 11; i++ {
		var t setupTimes
		sess, err := startServe(r, &t)
		if err != nil {
			return err
		}
		reps = append(reps, t)
		setup = append(setup, t.total()+sess.startS)
		serverStart = append(serverStart, sess.startS)
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		s = sess
	}
	defer s.stop()
	r.timing("setup_reps_s", setup, "s", 1)
	r.set("setup_s", median(setup), "s", "build the game, solve the initial policy, attach the tracker, start the server; median of 11")
	r.line("server_start_s", median(serverStart), "s", "serve.New plus listener, part of setup_s")

	p, err := makePlan(r, s.game)
	if err != nil {
		return err
	}
	_, v0 := s.aud.CurrentPolicy()
	res, backlog, alloc := generateGauged(r, s.url, p)

	// Requests: every answer must be a well-formed 200, and each worker
	// must see policy versions that never go back.
	lastVersion := map[int]uint64{}
	order := make([]int, len(res))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return res[order[a]].Done < res[order[b]].Done })
	for _, i := range order {
		rr, ev := &res[i], &p.events[i]
		var err error
		switch {
		case rr.Failed && ev.observe:
			err = fmt.Errorf("observe %d failed or was refused", ev.period)
		case rr.Failed:
			err = fmt.Errorf("select %d failed or was refused", i)
		case !ev.observe && rr.version < lastVersion[rr.worker]:
			err = fmt.Errorf("worker %d saw policy_version %d after %d", rr.worker, rr.version, lastVersion[rr.worker])
		}
		if !ev.observe && !rr.Failed {
			lastVersion[rr.worker] = max(lastVersion[rr.worker], rr.version)
		}
		r.op(err)
	}

	// Steps: each fires drift exactly once, on the first check after it,
	// and its refit job installs exactly one new policy.
	fireAt := map[int]int{} // period → event index
	for i, ev := range p.events {
		if ev.observe && res[i].drift {
			fireAt[ev.period] = i
		}
	}
	var d2i []float64
	var refits []*serve.JobResponse
	for _, step := range p.steps {
		check := step + serveWindow
		i, ok := fireAt[check]
		delete(fireAt, check)
		if !ok {
			r.op(fmt.Errorf("step after period %d did not fire drift at period %d", step, check))
			continue
		}
		j, err := waitJob(s.url, res[i].jobID)
		if err == nil && (j.Status != "done" || j.Outcome != auditgame.RefitInstalled) {
			err = fmt.Errorf("refit job %s ended %s/%s: %s", j.JobID, j.Status, j.Outcome, j.Error)
		}
		// Drift to install: from the firing observe's due time to the
		// first select answer carrying the refit's policy version.
		first := math.Inf(1)
		if err == nil {
			for k, ev := range p.events {
				if !ev.observe && !res[k].Failed && res[k].version >= j.PolicyVersion {
					first = math.Min(first, res[k].Done)
				}
			}
			if math.IsInf(first, 1) {
				err = fmt.Errorf("no select answered with refit version %d", j.PolicyVersion)
			}
		}
		r.op(err)
		if err == nil {
			refits = append(refits, j)
			d2i = append(d2i, first-res[i].Due)
		}
	}
	for period := range fireAt {
		r.op(fmt.Errorf("drift fired at period %d, which follows no step", period))
	}
	var verr error
	if _, v := s.aud.CurrentPolicy(); v != v0+uint64(len(refits)) {
		verr = fmt.Errorf("policy version went %d → %d over %d step installs", v0, v, len(refits))
	}
	r.op(verr)

	// Latency per phase, from due time; a failure misses every limit.
	var steps []ladderStep
	var refSel, refObs, lates, refService []float64
	for ph, rate := range p.rates {
		var lat []float64
		done := 0
		first, last := math.Inf(1), 0.0
		for i, ev := range p.events {
			if ev.observe || ev.phase != ph {
				continue
			}
			lat = append(lat, res[i].fromDue())
			lates = append(lates, res[i].late())
			first = math.Min(first, res[i].Due)
			if !res[i].Failed {
				last = math.Max(last, res[i].Done)
				done++
				if ph == 0 {
					refService = append(refService, res[i].Done-res[i].Sent)
				}
			}
		}
		st := ladderStep{
			Rate: rate, P99: quantile(lat, 0.99), Achieved: float64(done) / (last - first),
			Growing: backlogGrowing(backlog[ph], backlogSlack*rate),
		}
		steps = append(steps, st)
		if ph == 0 {
			refSel = lat
		}
		r.line(fmt.Sprintf("select_p99_ms@%g", rate), st.P99*1e3, "ms",
			fmt.Sprintf("p50 %.4g ms, n=%d, %.1f done/s, backlog growing=%v", median(lat)*1e3, len(lat), st.Achieved, st.Growing))
	}
	for i, ev := range p.events {
		if ev.observe {
			refObs = append(refObs, res[i].fromDue())
			lates = append(lates, res[i].late())
		}
	}
	selS := r.timing("select_ms@ref", refSel, "ms", 1e3)
	r.timing("observe_ms", refObs, "ms", 1e3)
	r.timing("drift_to_install_s", d2i, "s", 1)
	// Steps alternate between two fitted models, so install times form
	// two clusters and the median would sit on the edge of one; the
	// mean weighs both.
	d2iMean := sumF(d2i) / float64(len(d2i))
	r.line("drift_to_install_mean_s", d2iMean, "s", fmt.Sprintf("over %d steps", len(d2i)))
	lateS := r.timing("loadgen.late_ms", lates, "ms", 1e3)
	var backlogMax int
	for _, b := range backlog {
		for _, v := range b {
			backlogMax = max(backlogMax, v)
		}
	}
	r.line("select_p50_ms", selS.Median*1e3, "ms", "at the reference rate, from due time")
	r.line("select_p99_ms", quantile(refSel, 0.99)*1e3, "ms", "at the reference rate, from due time")
	r.line("observe_p99_ms", quantile(refObs, 0.99)*1e3, "ms", "from due time")
	r.line("select_service_p50_ms", median(refService)*1e3, "ms", "sent → done at the reference rate")
	r.line("loadgen.backlog_max", float64(backlogMax), "count", "released but unsent selects")
	best, ok := maxPassingRate(steps, p99Limit)
	var lerr error
	if !ok {
		lerr = fmt.Errorf("no ladder rate met the %.0f ms p99 limit", p99Limit*1e3)
	}
	r.op(lerr)
	r.line("select_max_rps", best.Rate, "1/s", fmt.Sprintf("highest ladder rate with p99 ≤ %.0f ms and no growing backlog", p99Limit*1e3))
	r.set("primary_ms", selS.Median*1e3, "ms", "select_p50_ms: /v1/select at the reference rate, from due time")
	r.set("secondary_ms", d2iMean*1e3, "ms", "drift_to_install mean: firing observe due → first select with the new version")
	r.set("throughput_per_s", best.Achieved, "1/s", "select_max_rps: completed rate at the highest passing ladder rate")
	// Allocation per request is taken over the ladder phases, which no
	// refit overlaps, so it measures the request path alone.
	ladderReqs := 0
	for _, ev := range p.events {
		if ev.due >= p.bounds[1] {
			ladderReqs++
		}
	}
	r.set("alloc_mb_per_op", float64(alloc[len(alloc)-1]-alloc[1])/float64(ladderReqs)/1e6, "MB",
		"bytes allocated per request over the ladder phases, client and server")

	if r.traced {
		reportSetup(r, reps, nil)
		r.set("loadgen.late_p99_ms", quantile(lates, 0.99)*1e3, "ms", "generator lateness, "+lateS.format("ms", 1e3))
		r.set("loadgen.backlog_max", float64(backlogMax), "count", "")
		if err := serveLayers(r, s, refits, median(refService)); err != nil {
			return err
		}
	}
	return nil
}

// serveLayers reports the per-layer metrics of serve-mixed: the refit
// jobs' spans and work counters read back from GET /v1/solve/{id}, timed
// in-process calls into the session, and the server's own counters
// scraped from /metrics.
func serveLayers(r *run, s *serveSession, jobs []*serve.JobResponse, service float64) error {
	if len(jobs) == 0 {
		return fmt.Errorf("no refit job finished")
	}
	cg := newColgen()
	var snap, model, gate, install []float64
	var cov, total float64
	for _, j := range jobs {
		td := j.Trace
		if td == nil || j.Stats == nil || j.Warm == nil {
			return fmt.Errorf("refit job %s carries no trace or solve accounting", j.JobID)
		}
		cg.note(*j.Stats, j.Warm.ColumnsReused)
		cg.noteWarm(*j.Warm)
		set := newSpanSet()
		set.add(td, 0)
		cg.spans.add(td, 0)
		snap = append(snap, set.seconds("refit.snapshot"))
		model = append(model, set.seconds("refit.model"))
		gate = append(gate, set.seconds("refit.gate"))
		install = append(install, set.seconds("install"))
		var all []interval
		for _, v := range set.byName {
			for _, sp := range v {
				all = append(all, sp.interval)
			}
		}
		cov += covered(all, 0, td.TotalMS/1e3)
		total += td.TotalMS / 1e3
	}
	cg.report(r, float64(len(jobs)), "refit job")
	r.set("refit.snapshot_s", median(snap), "s", "refit.snapshot span per refit job")
	r.set("refit.model_s", median(model), "s", "refit.model span per refit job")
	r.set("refit.gate_s", median(gate), "s", "refit.gate span per refit job")
	r.set("auditor.install_s", median(install), "s", "install span per refit job")
	r.set("trace.attributed_frac", cov/total, "frac", "refit job time covered by its spans")
	r.line("trace.unattributed_frac", 1-cov/total, "frac", "")

	checks, fires, _ := s.aud.Tracker().Counters()
	r.set("refit.checks", float64(checks), "count", "detector runs over the load")
	r.set("refit.fires", float64(fires), "count", "drift firings over the load")
	obs, err := observeNS(s.game)
	if err != nil {
		return err
	}
	r.set("refit.observe_ns", obs, "ns", "timed Auditor.Observe on a stationary stream")

	counts := drawCounts(s.game, rand.New(rand.NewSource(r.seed)), nil)
	var ns []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, calls := ms.Mallocs, 0
	for b := 0; b < 20; b++ {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			if _, _, err := s.aud.SelectVersioned(counts); err != nil {
				return err
			}
		}
		calls += 1000
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/1000)
	}
	runtime.ReadMemStats(&ms)
	sel := median(ns)
	r.set("auditor.select_ns", sel, "ns", "timed in-process SelectVersioned")
	r.set("auditor.select_allocs", float64(ms.Mallocs-m0)/float64(calls), "count", "heap allocations per SelectVersioned")
	r.set("serve.http_overhead_us", service*1e6-sel/1e3, "us", "reference-rate select service time − in-process select")

	text, err := scrape(s.url + "/metrics")
	if err != nil {
		return err
	}
	for _, c := range []string{"2xx", "4xx", "5xx"} {
		r.set("serve.status_"+c, text.sum("http_requests_total", `code="`+c+`"`), "count", "from /metrics")
	}
	r.set("serve.refit_jobs", text.sum("jobs_submitted_total", `kind="refit"`), "count", "from /metrics")
	r.set("trace.overhead_frac", 0, "frac", "the traced run adds nothing on the request path")
	return nil
}

// observeNS times Auditor.Observe on a separate session bound to the
// same game, with a tracker like the served one and stationary counts.
func observeNS(g *game.Game) (float64, error) {
	aud, err := auditgame.NewAuditor(auditgame.AuditorConfig{Game: g, BudgetFraction: 0.1, Method: auditgame.MethodCGGS})
	if err != nil {
		return 0, err
	}
	tr, err := auditgame.NewTracker(serveTypes, auditgame.TrackerConfig{
		Window: serveWindow, MinFill: serveWindow, Cadence: serveWindow, Detector: serveDetector(),
	})
	if err != nil {
		return 0, err
	}
	if err := aud.AttachTracker(tr, auditgame.RefitOptions{}); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]int, 256)
	for i := range rows {
		rows[i] = drawCounts(g, rng, nil)
	}
	var ns []float64
	for b := 0; b < 20; b++ {
		t0 := time.Now()
		for i := 0; i < 1000; i++ {
			if _, err := aud.Observe(rows[(b*1000+i)%len(rows)]); err != nil {
				return 0, err
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/1000)
	}
	return median(ns), nil
}

// exposition is a scraped Prometheus text page, one line per entry.
type exposition []string

func scrape(url string) (exposition, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// sum adds the values of every series of family name whose label set
// contains label.
func (e exposition) sum(name, label string) float64 {
	var t float64
	for _, l := range e {
		if !strings.HasPrefix(l, name+"{") || !strings.Contains(l, label) {
			continue
		}
		if v, err := strconv.ParseFloat(l[strings.LastIndexByte(l, ' ')+1:], 64); err == nil {
			t += v
		}
	}
	return t
}
