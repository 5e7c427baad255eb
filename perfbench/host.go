package main

import (
	"sort"
	"time"
)

// hostGauge measures how fast the host runs while the benchmark measures.
//
// The benchmark's host shares its cores, caches and memory with other
// machines' work. Over minutes, that load slows every solve and
// simulator pass by up to about 2× (Syn A brute force: 0.66 s in a
// quiet phase, 1.30 s in a busy one), while the p10 within one run
// barely moves. A fixed piece of benchmark-owned work — the gauge
// kernel — timed between the measured operations (beside the load, on
// the served workload) slows by about the same share: over four minutes in which the p10 of a 360-period simulator
// pass ranged from 9.3 to 13.2 ms, its ratio to the kernel's p10 stayed
// between 1.83 and 1.99. Scaling a run's timings by reference ÷ kernel
// time reports them at the reference host speed, so that runs made in
// different phases compare.
//
// The kernel is cache- and branch-bound like the program: it fills a
// 40,000-entry map by walking a random cycle, reads it back the same way
// and sorts the hits. It allocates nothing after its first call, so it
// adds no garbage for the measured operations' collector to pay for.
type hostGauge struct {
	samples []float64

	next, key []int32
	m         map[int32]int32
	buf       []float64
}

// gaugeRef is the reference kernel time: about the kernel's p10 on the
// baselining host (2-vCPU x86-64, Go 1.24) in a quiet phase, so that
// scaled timings read close to what such a phase measures.
const gaugeRef = 0.005

const gaugeEntries = 40000

var gaugeSink int

// sample times one pass of the kernel.
func (g *hostGauge) sample() {
	if g.m == nil {
		g.init()
	}
	t0 := time.Now()
	clear(g.m)
	j := int32(0)
	for range g.next {
		g.m[g.key[j]] = j
		j = g.next[j]
	}
	f := g.buf[:0]
	for range g.next {
		if g.m[g.key[j]] == j {
			f = append(f, float64(g.key[j])*1.5)
		}
		j = g.next[j]
	}
	sort.Float64s(f)
	gaugeSink += len(f)
	g.samples = append(g.samples, time.Since(t0).Seconds())
}

// init builds the kernel's fixed inputs: a single random cycle through
// the entries and a key per entry, from a fixed xorshift stream.
func (g *hostGauge) init() {
	g.next, g.key = make([]int32, gaugeEntries), make([]int32, gaugeEntries)
	g.m, g.buf = make(map[int32]int32, gaugeEntries), make([]float64, 0, gaugeEntries)
	x := uint64(12345)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	perm := make([]int32, gaugeEntries)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		k := int(rnd() % uint64(i))
		perm[i], perm[k] = perm[k], perm[i]
	}
	for i, p := range perm {
		g.next[p] = perm[(i+1)%len(perm)]
		g.key[i] = int32(rnd() % 100000)
	}
}

// factor is gaugeRef ÷ the run's p10 kernel time: a run's timings times
// factor are its timings at the reference host speed.
func (g *hostGauge) factor() float64 { return gaugeRef / quantile(g.samples, fastQ) }
