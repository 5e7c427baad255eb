// Command perfbench is the repository benchmark. It drives the audit-game
// stack from outside, through its public entry points (the Auditor facade,
// the solver and game packages, the policy server over loopback, and the
// closed-loop simulator), on one of four workloads; checks every output;
// and prints each metric by name with its unit. The last line of standard
// output is a JSON summary.
//
//	bash perfbench/run.sh --workload paper-syna --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the summary carries the end-to-end metrics, measured
// with no instrumentation beyond the program's own. With --trace 1 the
// same workload runs with per-layer timing from this package's own files
// (and the spans the solver already records), and the summary carries
// the per-layer metrics. metrics.md maps each per-layer metric to the
// end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// unitSpec names a metric and its unit.
type unitSpec struct{ name, unit string }

// endToEnd is the fixed end-to-end slot set every workload fills; what
// each slot measures on each workload is listed in metrics.md and
// printed by name on every run.
var endToEnd = []unitSpec{
	{"setup_s", "s"},
	{"primary_ms", "ms"},
	{"secondary_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer is the per-layer metric set of the traced run. A layer that a
// workload does not exercise reads 0 there.
var perLayer = []unitSpec{
	{"workload.build_s", "s"},
	{"sample.bank_s", "s"},
	{"game.new_instance_s", "s"},
	{"game.realizations", "count"},
	{"game.classes", "count"},
	{"game.grid_sweep_s", "s"},
	{"game.pal_evals", "count"},
	{"game.palbatch_us_per_ordering", "us"},
	{"game.cache_pals", "count"},
	{"lp.master_s", "s"},
	{"lp.master_solves", "count"},
	{"lp.pivots", "count"},
	{"lp.us_per_pivot", "us"},
	{"lp.fixed_pals_s", "s"},
	{"lp.fixed_solves", "count"},
	{"solver.price_s", "s"},
	{"solver.columns", "count"},
	{"solver.prefix_hits", "count"},
	{"solver.pruned_candidates", "count"},
	{"solver.useful_round_frac", "frac"},
	{"solver.warm_screen_s", "s"},
	{"solver.parked_reprice_s", "s"},
	{"solver.columns_reused", "count"},
	{"solver.columns_parked", "count"},
	{"solver.warm_rounds", "count"},
	{"solver.ishm_inner_s", "s"},
	{"solver.ishm_inner_calls", "count"},
	{"solver.ishm_self_s", "s"},
	{"solver.ishm_unique_frac", "frac"},
	{"refit.snapshot_s", "s"},
	{"refit.model_s", "s"},
	{"refit.gate_s", "s"},
	{"auditor.install_s", "s"},
	{"refit.observe_ns", "ns"},
	{"refit.checks", "count"},
	{"refit.fires", "count"},
	{"auditor.select_ns", "ns"},
	{"auditor.select_allocs", "count"},
	{"serve.http_overhead_us", "us"},
	{"serve.status_2xx", "count"},
	{"serve.status_4xx", "count"},
	{"serve.status_5xx", "count"},
	{"serve.refit_jobs", "count"},
	{"sim.events", "count"},
	{"sim.refits_installed", "count"},
	{"sim.drift_fires", "count"},
	{"sim.events_per_s_procs1", "1/s"},
	{"sim.cum_regret", "loss"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.dropped_spans", "count"},
	{"trace.attributed_frac", "frac"},
}

// run is one benchmark invocation: its settings, the operation tally
// behind fail_ratio, and the metrics it reports.
type run struct {
	seed    int64
	seconds time.Duration
	traced  bool
	ctx     context.Context
	out     io.Writer

	attempted, failed int
	metrics           map[string]float64
	host              hostGauge
}

// op counts one attempted operation and, when err is non-nil, one failed
// one; failures are reported on standard error.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	}
}

// set records a reported metric and prints it.
func (r *run) set(name string, v float64, unit, note string) {
	r.metrics[name] = v
	r.line(name, v, unit, note)
}

// line prints a named value that the JSON summary does not carry.
func (r *run) line(name string, v float64, unit, note string) {
	if note != "" {
		note = "  # " + note
	}
	fmt.Fprintf(r.out, "%-32s %14.6g %-6s%s\n", name, v, unit, note)
}

// timing prints a timing distribution (seconds) under name in unit,
// scaled by mul.
func (r *run) timing(name string, v []float64, unit string, mul float64) summary {
	s := summarize(v)
	fmt.Fprintf(r.out, "%-32s %s\n", name, s.format(unit, mul))
	return s
}

// until reports whether the measurement window is still open: at least
// minIter iterations always run, then iterations continue until the
// deadline.
func until(deadline time.Time, iter, minIter int) bool {
	return iter < minIter || time.Now().Before(deadline)
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeIt runs f and returns its wall time in seconds.
func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// workloadSpec is one named workload and the processors it runs on.
type workloadSpec struct {
	run func(*run) error
	// procs is the GOMAXPROCS the workload runs at; 0 keeps the default
	// (one per core). The solve and simulation workloads run on one
	// processor: on a host whose cores other machines share, a solve
	// spread over both cores waits on whichever core a neighbour is busy
	// on, and its run-to-run spread grows past any useful bound. The
	// served workload needs its server and its load generator side by
	// side, so it keeps every core.
	procs int
	// rateIsWork marks a throughput_per_s that is work done per second of
	// measured time, and so scales with the host like a timing; the
	// served workload's is the highest ladder rate that passed.
	rateIsWork bool
}

var workloads = map[string]workloadSpec{
	"paper-syna":   {runPaperSynA, 1, true},
	"bank-drift":   {runBankDrift, 1, true},
	"serve-mixed":  {runServeMixed, 0, false},
	"sim-seasonal": {runSimSeasonal, 1, true},
}

// scaleToHost restates the run's end-to-end timings at the reference
// host speed (see hostGauge). The values as measured stay printed above.
func (r *run) scaleToHost(rateIsWork bool) {
	f := r.host.factor()
	r.timing("host.gauge_ms", r.host.samples, "ms", 1e3)
	r.line("host.factor", f, "x", fmt.Sprintf("reference kernel %.4g ms ÷ this run's p10 kernel time", gaugeRef*1e3))
	for _, s := range endToEnd {
		v := r.metrics[s.name]
		switch {
		case s.unit == "s" || s.unit == "ms":
			r.set(s.name, v*f, s.unit, fmt.Sprintf("at reference host speed: %.6g %s as measured × host factor", v, s.unit))
		case s.name == "throughput_per_s" && rateIsWork:
			r.set(s.name, v/f, s.unit, fmt.Sprintf("at reference host speed: %.6g %s as measured ÷ host factor", v, s.unit))
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-syna, bank-drift, serve-mixed, sim-seasonal")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 12, "measurement window per run, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run; 0 the end-to-end metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds ≥ 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		ctx:     context.Background(),
		out:     os.Stdout,
		metrics: map[string]float64{},
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	fmt.Fprintf(r.out, "perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := wl.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *name)
		os.Exit(1)
	}
	if !r.traced {
		r.scaleToHost(wl.rateIsWork)
	}
	r.line("fail_ratio", float64(r.failed)/float64(r.attempted), "frac",
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))

	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v := r.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", s.name)
			os.Exit(1)
		}
		metrics[s.name] = value{v, s.unit}
	}
	if !r.traced {
		for _, s := range endToEnd {
			if metrics[s.name].Value <= 0 {
				fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s was not measured\n", s.name)
				os.Exit(1)
			}
		}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(r.out, string(res))
}
