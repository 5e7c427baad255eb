package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is a timing distribution reduced the way every timing is
// reported: the fast quantile, the median, the highest percentile that
// still has at least minBeyond samples beyond it, and the sample count.
type summary struct {
	N      int
	Fast   float64 // the fastQ quantile
	Median float64
	// TailLabel names the tail percentile ("p99", …); empty when too
	// few samples exist for any tail percentile to have minBeyond
	// samples beyond it.
	TailLabel string
	Tail      float64
}

// fastQ is the quantile a compute-bound timing reports as its bounded
// end-to-end value. On a host whose cores are shared with other machines'
// work, a neighbour's load lengthens a changing share of the operations,
// so the median of a run moves with that load by more than a regression
// bound; the fast end of the distribution is the program's own cost with
// the least interference, and moves with the program.
const fastQ = 0.10

// minBeyond is how many samples must lie beyond a reported tail
// percentile, so that a tail is never read off one or two outliers.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []struct {
	label string
	q     float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest percentile of sorted with at least
// minBeyond samples strictly above its rank.
func tailPercentile(sorted []float64) (string, float64, bool) {
	n := len(sorted)
	for _, c := range tailLadder {
		i := rankIndex(n, c.q)
		if n-1-i >= minBeyond {
			return c.label, sorted[i], true
		}
	}
	return "", 0, false
}

// median of unsorted values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of unsorted values (0 for
// none).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	out := summary{N: len(s), Fast: quantile(s, fastQ), Median: median(s)}
	if label, val, ok := tailPercentile(s); ok {
		out.TailLabel, out.Tail = label, val
	}
	return out
}

// format renders the summary in the given unit, scaled by mul.
func (s summary) format(unit string, mul float64) string {
	head := fmt.Sprintf("p10 %.4g %s, p50 %.4g %s", s.Fast*mul, unit, s.Median*mul, unit)
	if s.TailLabel == "" {
		return fmt.Sprintf("%s (n=%d, too few samples for a tail)", head, s.N)
	}
	return fmt.Sprintf("%s, %s %.4g %s (n=%d)", head, s.TailLabel, s.Tail*mul, unit, s.N)
}

// interval is a half-open time span [Start, End) in seconds on one clock.
type interval struct{ Start, End float64 }

// covered returns the total length of the union of spans, each clipped
// to [lo, hi). Overlapping spans — parallel ISHM workers, nested
// phases — are counted once, so the result never exceeds hi − lo.
func covered(spans []interval, lo, hi float64) float64 {
	var c []interval
	for _, s := range spans {
		s.Start, s.End = math.Max(s.Start, lo), math.Min(s.End, hi)
		if s.End > s.Start {
			c = append(c, s)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
	var total, curS, curE float64
	open := false
	for _, s := range c {
		switch {
		case !open:
			curS, curE, open = s.Start, s.End, true
		case s.Start <= curE:
			curE = math.Max(curE, s.End)
		default:
			total += curE - curS
			curS, curE = s.Start, s.End
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a parent span's duration minus the part of it that its
// children cover.
func selfTime(parent interval, children []interval) float64 {
	return (parent.End - parent.Start) - covered(children, parent.Start, parent.End)
}

// sumDur is the plain sum of span durations (overlaps counted twice).
func sumDur(spans []interval) float64 {
	var s float64
	for _, sp := range spans {
		s += sp.End - sp.Start
	}
	return s
}

// ladderStep is the outcome of one fixed-rate step of the open-loop
// generator.
type ladderStep struct {
	Rate float64 // offered requests per second
	// P99 is the latency percentile judged against the limit, with
	// failed requests counted as missing it.
	P99 float64
	// Growing reports a backlog that rose over the step: the generator
	// fell behind its schedule and did not catch up.
	Growing bool
	// Achieved is the completed-request rate over the step.
	Achieved float64
}

// maxPassingRate returns the step with the highest offered rate whose
// p99 meets limit with no growing backlog.
func maxPassingRate(steps []ladderStep, limit float64) (ladderStep, bool) {
	var best ladderStep
	ok := false
	for _, s := range steps {
		if s.P99 <= limit && !s.Growing && (!ok || s.Rate > best.Rate) {
			best, ok = s, true
		}
	}
	return best, ok
}

// backlogGrowing judges a step's backlog samples (requests due but not
// yet started, sampled in time order): the backlog grew when the mean
// of the last quarter of the step exceeds the mean of the first quarter
// by more than slack requests.
func backlogGrowing(samples []int, slack float64) bool {
	n := len(samples)
	if n < 4 {
		return false
	}
	q := n / 4
	mean := func(s []int) float64 {
		var t float64
		for _, v := range s {
			t += float64(v)
		}
		return t / float64(len(s))
	}
	return mean(samples[n-q:])-mean(samples[:q]) > slack
}

// latency is one open-loop request's timing, all in seconds from the
// generator's start: when it was due, when a worker sent it, and when
// its response finished. A failed request never meets a latency limit.
type latency struct {
	Due, Sent, Done float64
	Failed          bool
}

// fromDue is the latency a user sees: time from when the request was due
// to be sent to its completion, so a stall also charges the requests
// queued behind it. Failed requests read +Inf.
func (l latency) fromDue() float64 {
	if l.Failed {
		return math.Inf(1)
	}
	return l.Done - l.Due
}

// late is how far behind its schedule the generator sent the request.
func (l latency) late() float64 { return l.Sent - l.Due }
