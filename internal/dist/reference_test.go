package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"auditgame/internal/dist"
	"auditgame/internal/sim"
	"auditgame/internal/workload"
)

// The references below compute the gaussian build and the spec key the
// direct way: a bisection on every build, two Φ calls per bin, and
// shortest-decimal floats. The production code's Φ⁻¹ memo, per-edge Φ
// and raw-bit key (DESIGN.md D5) must agree with them bit for bit.

// refPhi is the standard normal CDF Φ.
func refPhi(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// refGaussian builds a gaussian spec that Spec.Build accepts with a
// positive std: a bisection for the coverage support, and Φ at both
// edges of every bin.
func refGaussian(s dist.Spec) dist.Distribution {
	var lo, hi int
	if s.HalfWidth != 0 {
		c := int(math.Round(s.Mean))
		lo, hi = max(c-s.HalfWidth, 0), c+s.HalfWidth
	} else {
		half := dist.BisectQuantile((1+s.Coverage)/2) * s.Std
		lo, hi = int(math.Max(math.Floor(s.Mean-half), 0)), int(math.Ceil(s.Mean+half))
	}
	hi = max(hi, lo)
	w := make([]float64, hi-lo+1)
	for i := range w {
		n := float64(lo + i)
		w[i] = refPhi((n+0.5-s.Mean)/s.Std) - refPhi((n-0.5-s.Mean)/s.Std)
	}
	return dist.NormalizeTable(lo, w)
}

// refKey is Spec.Key's shortest-decimal encoding.
func refKey(s dist.Spec) string {
	b := []byte(s.Kind)
	sep := func() { b = append(b, '|') }
	f := func(v float64) { b = strconv.AppendFloat(b, v, 'g', -1, 64) }
	switch s.Kind {
	case "gaussian":
		sep()
		f(s.Mean)
		sep()
		f(s.Std)
		sep()
		if s.HalfWidth != 0 {
			b = append(b, 'w')
			b = strconv.AppendInt(b, int64(s.HalfWidth), 10)
		} else {
			b = append(b, 'c')
			f(s.Coverage)
		}
	case "poisson":
		sep()
		f(s.Lambda)
		sep()
		f(s.Coverage)
	case "empirical":
		for _, c := range s.Counts {
			sep()
			b = strconv.AppendInt(b, int64(c), 10)
		}
	case "point", "soliton":
		sep()
		b = strconv.AppendInt(b, int64(s.N), 10)
	}
	return string(b)
}

// tableDiff describes the first difference between two tables' bits,
// or returns "" when they are equal.
func tableDiff(got, want dist.Distribution) string {
	glo, gpmf, gcdf, gmean := dist.TableBits(got)
	wlo, wpmf, wcdf, wmean := dist.TableBits(want)
	if glo != wlo || len(gpmf) != len(wpmf) {
		return fmt.Sprintf("support [%d, +%d], reference [%d, +%d]", glo, len(gpmf), wlo, len(wpmf))
	}
	for i := range gpmf {
		if math.Float64bits(gpmf[i]) != math.Float64bits(wpmf[i]) || math.Float64bits(gcdf[i]) != math.Float64bits(wcdf[i]) {
			return fmt.Sprintf("bin %d pmf %v cdf %v, reference %v %v", glo+i, gpmf[i], gcdf[i], wpmf[i], wcdf[i])
		}
	}
	if math.Float64bits(gmean) != math.Float64bits(wmean) {
		return fmt.Sprintf("mean %v, reference %v", gmean, wmean)
	}
	return ""
}

// checkGaussian builds s both ways and compares the bits.
func checkGaussian(t *testing.T, s dist.Spec) {
	t.Helper()
	d, err := s.Build()
	if err != nil || s.Std == 0 {
		return // no table, or the point mass the reference does not cover
	}
	if diff := tableDiff(d, refGaussian(s)); diff != "" {
		t.Fatalf("%s: %s", refKey(s), diff)
	}
}

// randomGaussian draws a gaussian spec over both parameterizations,
// with coverages that mostly repeat (the memo's hit path) and sometimes
// change (its miss path).
func randomGaussian(r *rand.Rand) dist.Spec {
	s := dist.Spec{Kind: "gaussian", Mean: r.Float64()*600 - 20, Std: math.Exp(r.Float64()*10 - 5)}
	switch r.Intn(4) {
	case 0:
		s.HalfWidth = 1 + r.Intn(60)
	case 1:
		s.Coverage = r.Float64()
	default:
		s.Coverage = []float64{0.995, 0.999, 0.9}[r.Intn(3)]
	}
	return s
}

// TestGaussianMatchesReference checks Build's gaussian tables — the
// Φ⁻¹ memo and one Φ per bin edge — against refGaussian, bit for bit,
// on random specs.
func TestGaussianMatchesReference(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	r := rand.New(rand.NewSource(25))
	for i := 0; i < n; i++ {
		checkGaussian(t, randomGaussian(r))
	}
}

// TestQuantileMemoConcurrent builds gaussians with alternating
// coverages from several goroutines, so the one-entry memo is replaced
// while others read it; every table must still equal the reference.
// Run it under -race.
func TestQuantileMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cov := []float64{0.995, 0.9, 0.5, 0.999}[(g+i)%4]
				s := dist.Spec{Kind: "gaussian", Mean: float64(10 + i%7), Std: 1 + float64(g), Coverage: cov}
				d, err := s.Build()
				if err != nil {
					t.Error(err)
					return
				}
				if diff := tableDiff(d, refGaussian(s)); diff != "" {
					t.Errorf("%s under concurrent builds: %s", refKey(s), diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// workloadSpecs returns every spec the registered workloads' templates
// and the simulator's scenarios build: the scenarios' per-period true
// models over their horizons, injections applied, and Syn A's Table II
// models (game.SynA builds them from these half-widths).
func workloadSpecs(t *testing.T) []dist.Spec {
	var specs []dist.Spec
	weekday, weekend := workload.SeasonalRegimes()
	for _, set := range [][]workload.TypeTemplate{workload.DefaultTemplates(), workload.HeavyTailTemplates(), weekday, weekend} {
		for _, tm := range set {
			specs = append(specs, tm.Spec)
		}
	}
	for _, p := range [][3]float64{{6, 2, 5}, {5, 1.6, 4}, {4, 1.3, 3}, {4, 1, 3}} {
		specs = append(specs, dist.Spec{Kind: "gaussian", Mean: p[0], Std: p[1], HalfWidth: int(p[2])})
	}
	for _, name := range sim.Scenarios() {
		scn, _ := sim.GetScenario(name)
		streams, err := scn.Streams()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.NewTraffic(streams)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 360; p++ {
			for _, inj := range scn.Injections {
				if inj.Period == p {
					if err := inj.Apply(tr); err != nil {
						t.Fatal(err)
					}
				}
			}
			at, err := tr.SpecsAt(p)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, at...)
		}
	}
	return specs
}

// TestWorkloadSpecsMatchReference checks the tables and keys of every
// workload and scenario spec against the references.
func TestWorkloadSpecsMatchReference(t *testing.T) {
	specs := workloadSpecs(t)
	for _, s := range specs {
		if s.Kind == "gaussian" {
			checkGaussian(t, s)
		}
	}
	checkKeyPartition(t, specs)
}

// checkKeyPartition checks that Key and refKey split specs into the
// same classes: two specs share a raw-bit key exactly when they share
// a decimal one.
func checkKeyPartition(t *testing.T, specs []dist.Spec) {
	t.Helper()
	byRef := map[string]string{}
	byKey := map[string]string{}
	for _, s := range specs {
		k, rk := s.Key(), refKey(s)
		if string(s.AppendKey([]byte("x"))) != "x"+k {
			t.Fatalf("%s: AppendKey does not append Key", rk)
		}
		if prev, ok := byRef[rk]; ok && prev != k {
			t.Fatalf("%s: decimal-equal specs keyed apart", rk)
		}
		if prev, ok := byKey[k]; ok && prev != rk {
			t.Fatalf("specs %s and %s share a key", prev, rk)
		}
		byRef[rk], byKey[k] = k, rk
	}
}

// TestKeyMatchesDecimalReference checks the key partition on random
// specs of every kind drawn from small value pools, so equal specs
// recur, with fields Build ignores set at random.
func TestKeyMatchesDecimalReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	floats := []float64{0, 1, 2, 0.1, 0.995, 3.000000000001, math.Copysign(0, -1), 1e300, -4.5}
	pick := func() float64 { return floats[r.Intn(len(floats))] }
	kinds := []string{"gaussian", "poisson", "empirical", "point", "soliton", "", "weird"}
	specs := make([]dist.Spec, 0, 20000)
	for i := 0; i < cap(specs); i++ {
		s := dist.Spec{Kind: kinds[r.Intn(len(kinds))], Mean: pick(), Std: pick(), Coverage: pick(), Lambda: pick()}
		if r.Intn(2) == 0 {
			s.HalfWidth = r.Intn(3)
		}
		if r.Intn(2) == 0 {
			s.N = r.Intn(4) - 1
		}
		for j := r.Intn(4); j > 0; j-- {
			s.Counts = append(s.Counts, []int{0, 4, 6, 46, math.MaxInt}[r.Intn(5)])
		}
		specs = append(specs, s)
	}
	checkKeyPartition(t, specs)
}
