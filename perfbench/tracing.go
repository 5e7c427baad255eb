package main

import (
	"time"

	"auditgame/internal/solver"
	"auditgame/internal/telemetry"
)

// epoch anchors the run clock every recorded interval is measured on.
var epoch = time.Now()

// clock returns seconds since epoch.
func clock() float64 { return time.Since(epoch).Seconds() }

// span is one solver span placed on the run clock.
type span struct {
	interval
	Value int64
}

// spanSet collects the spans the solver stack already records, by name,
// on the run clock, plus how many the trace cap dropped.
type spanSet struct {
	byName  map[string][]span
	dropped int
}

func newSpanSet() *spanSet { return &spanSet{byName: map[string][]span{}} }

// add folds a finished trace whose clock started at base (run clock
// seconds) into the set.
func (s *spanSet) add(td *telemetry.TraceData, base float64) {
	if td == nil {
		return
	}
	for _, sp := range td.Spans {
		start := base + sp.StartMS/1e3
		s.byName[sp.Name] = append(s.byName[sp.Name], span{interval{start, start + sp.DurMS/1e3}, sp.Value})
	}
	s.dropped += td.Dropped
}

// intervals returns the spans of the given names as plain intervals.
func (s *spanSet) intervals(names ...string) []interval {
	var out []interval
	for _, n := range names {
		for _, sp := range s.byName[n] {
			out = append(out, sp.interval)
		}
	}
	return out
}

// seconds is the summed duration of the named spans.
func (s *spanSet) seconds(name string) float64 { return sumDur(s.intervals(name)) }

// count is the number of spans recorded under name.
func (s *spanSet) count(name string) int { return len(s.byName[name]) }

// valueSum sums the named spans' values (pivots for cggs.master).
func (s *spanSet) valueSum(name string) int64 {
	var t int64
	for _, sp := range s.byName[name] {
		t += sp.Value
	}
	return t
}

// solverSpans are the column-generation phases CGGS records: master LP,
// greedy pricing, and the two warm-start phases.
var solverSpans = []string{"cggs.master", "cggs.price", "cggs.warm_screen", "cggs.parked_reprice"}

// colgen accumulates the column-generation work of traced solves: the
// spans plus the solver's own work counters.
type colgen struct {
	spans                              *spanSet
	columns, prefixHits, pruned, added int
	reused, parked, warmRounds         int
}

func newColgen() *colgen { return &colgen{spans: newSpanSet()} }

// note folds one solve's work counters in; initialColumns is the size of
// the column set the solve started from (1 cold, the reused pool warm).
func (c *colgen) note(st solver.CGGSStats, initialColumns int) {
	c.columns += st.Columns
	c.prefixHits += st.PrefixHits
	c.pruned += st.PrunedCandidates
	c.added += st.Columns - initialColumns
}

// noteWarm folds one warm refit's accounting in.
func (c *colgen) noteWarm(ws solver.WarmStats) {
	c.reused += ws.ColumnsReused
	c.parked += ws.ColumnsParked
	c.warmRounds += ws.PricingRounds
}

// report sets the LP-master and pricing per-layer metrics from the
// accumulated spans and counters, each divided by per — the number of
// workload iterations they accumulated over — and labelled with what
// one iteration is.
func (c *colgen) report(r *run, per float64, what string) {
	s := c.spans
	master := s.seconds("cggs.master")
	pivots := s.valueSum("cggs.master")
	note := func(n string) string { return n + " per " + what }
	r.set("lp.master_s", master/per, "s", note("Σ cggs.master spans"))
	r.set("lp.master_solves", float64(s.count("cggs.master"))/per, "count", note("master LP solves"))
	r.set("lp.pivots", float64(pivots)/per, "count", note("simplex pivots"))
	if pivots > 0 {
		r.set("lp.us_per_pivot", master/float64(pivots)*1e6, "us", "")
	}
	rounds := s.count("cggs.price")
	r.set("solver.price_s", s.seconds("cggs.price")/per, "s", note("Σ cggs.price spans"))
	r.set("solver.columns", float64(c.columns)/per, "count", note("final column pools, summed over solves,"))
	r.set("solver.prefix_hits", float64(c.prefixHits)/per, "count", note("prefix-checkpoint pricings"))
	r.set("solver.pruned_candidates", float64(c.pruned)/per, "count", note("bound-pruned candidates"))
	if rounds > 0 {
		r.set("solver.useful_round_frac", float64(c.added)/float64(rounds), "frac",
			"pricing rounds that added a column ÷ pricing rounds")
	}
	r.set("solver.warm_screen_s", s.seconds("cggs.warm_screen")/per, "s", note("Σ cggs.warm_screen spans"))
	r.set("solver.parked_reprice_s", s.seconds("cggs.parked_reprice")/per, "s", note("Σ cggs.parked_reprice spans"))
	r.set("solver.columns_reused", float64(c.reused)/per, "count", note("pooled columns seeded warm"))
	r.set("solver.columns_parked", float64(c.parked)/per, "count", note("pooled columns parked by the screen"))
	r.set("solver.warm_rounds", float64(c.warmRounds)/per, "count", note("warm pricing rounds"))
	r.set("trace.dropped_spans", float64(s.dropped), "count", "spans past the 512-span trace cap, whole run")
}
