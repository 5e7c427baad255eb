package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
		value float64
	}{
		{10, "", 0},        // nothing has ten samples beyond it
		{40, "p75", 30},    // p90 would leave 4 beyond, p75 leaves 10
		{100, "p90", 90},   // p95 leaves 5, p90 leaves 10
		{200, "p95", 190},  // p95 leaves exactly 10
		{1000, "p99", 990}, // p99.9 leaves 1
		{10000, "p99.9", 9990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.TailLabel != c.label || s.Tail != c.value {
			t.Errorf("n=%d: got %s=%v, want %s=%v", c.n, s.TailLabel, s.Tail, c.label, c.value)
		}
		if s.TailLabel != "" {
			beyond := 0
			for _, v := range seq(c.n) {
				if v > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %s has %d samples beyond it", c.n, s.TailLabel, beyond)
			}
		}
	}
}

func TestFastIsNearestRankP10(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{1, 1}, {9, 1}, {10, 1}, {11, 2}, {25, 3}, {100, 10}}
	for _, c := range cases {
		// Reversed input: the quantile must not depend on sample order.
		v := seq(c.n)
		for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
			v[i], v[j] = v[j], v[i]
		}
		if got := summarize(v).Fast; got != c.want {
			t.Errorf("n=%d: p10 = %v, want %v", c.n, got, c.want)
		}
	}
	if q := quantile(nil, fastQ); q != 0 {
		t.Errorf("empty quantile %v", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	// Two parallel workers overlap on [2, 3); a nested span adds nothing;
	// a span past the window is clipped.
	spans := []interval{{0, 3}, {2, 5}, {2.5, 2.7}, {9, 12}}
	if got := covered(spans, 0, 10); got != 6 {
		t.Errorf("covered = %v, want 6", got)
	}
	if got := sumDur(spans); math.Abs(got-9.2) > 1e-12 {
		t.Errorf("sum = %v, want 9.2 (overlaps counted twice)", got)
	}
}

func TestSelfTimeUnderParallelChildren(t *testing.T) {
	// Children sum to 8 s inside a 5 s parent — more than its wall time,
	// as ISHM's parallel inner solves do — yet cover [0.5, 4.5) only.
	parent := interval{0, 5}
	children := []interval{{0.5, 4.5}, {0.5, 4.5}}
	if got := selfTime(parent, children); got != 1 {
		t.Errorf("self time = %v, want 1", got)
	}
	if got := selfTime(parent, nil); got != 5 {
		t.Errorf("self time with no children = %v, want 5", got)
	}
}

func TestMaxPassingRate(t *testing.T) {
	steps := []ladderStep{
		{Rate: 1000, P99: 0.002},
		{Rate: 2000, P99: 0.004},
		{Rate: 4000, P99: 0.004, Growing: true}, // meets the limit but falls behind
		{Rate: 8000, P99: math.Inf(1)},          // a failure misses the limit
	}
	best, ok := maxPassingRate(steps, 0.005)
	if !ok || best.Rate != 2000 {
		t.Errorf("best = %+v, %v; want the 2000/s step", best, ok)
	}
	if _, ok := maxPassingRate(steps[3:], 0.005); ok {
		t.Error("a step whose p99 is a failure passed")
	}
}

func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing([]int{0, 1, 0, 2, 1, 0, 1, 0}, 4) {
		t.Error("a flat backlog reads as growing")
	}
	if !backlogGrowing([]int{0, 0, 1, 3, 6, 9, 12, 15}, 4) {
		t.Error("a rising backlog reads as steady")
	}
	if backlogGrowing([]int{50, 50, 50}, 4) {
		t.Error("too few samples to judge, yet judged growing")
	}
}

func TestLatencyIsTimedFromDue(t *testing.T) {
	// Due at 1.0 s, sent 0.3 s late behind a stall, done 0.1 s later: the
	// user waited 0.4 s, of which the generator's lateness was 0.3 s.
	l := latency{Due: 1.0, Sent: 1.3, Done: 1.4}
	if d := l.fromDue(); math.Abs(d-0.4) > 1e-12 {
		t.Errorf("latency from due = %v, want 0.4", d)
	}
	if d := l.late(); math.Abs(d-0.3) > 1e-12 {
		t.Errorf("lateness = %v, want 0.3", d)
	}
	l.Failed = true
	if d := l.fromDue(); !math.IsInf(d, 1) {
		t.Errorf("a failed request's latency = %v, want +Inf", d)
	}
}
