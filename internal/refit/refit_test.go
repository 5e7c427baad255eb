package refit

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"auditgame/internal/dist"
)

// model builds the reference workload the tests install: three gaussian
// count types of different scales.
func model(t *testing.T) []dist.Distribution {
	t.Helper()
	means := []float64{10, 6, 3}
	stds := []float64{2.5, 2, 1.2}
	ds := make([]dist.Distribution, len(means))
	for i := range ds {
		ds[i] = dist.NewGaussian(means[i], stds[i], 0.995)
	}
	return ds
}

// feed observes days periods of counts sampled from ds and returns the
// number of drift firings plus the period of the first one (-1 none).
func feed(t *testing.T, tr *Tracker, ds []dist.Distribution, r *rand.Rand, days int) (fires, first int) {
	t.Helper()
	first = -1
	counts := make([]int, len(ds))
	for day := 0; day < days; day++ {
		for i, d := range ds {
			counts[i] = d.Sample(r)
		}
		dec, err := tr.Observe(counts)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Drift {
			fires++
			if first < 0 {
				first = dec.Period
			}
		}
	}
	return fires, first
}

func newTracker(t *testing.T, types int, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(types, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStationaryNoDrift is the false-positive guard: 120 periods drawn
// from the installed model itself, checked every period, must never
// fire. Deterministic via the seeded sample stream.
func TestStationaryNoDrift(t *testing.T) {
	ds := model(t)
	tr := newTracker(t, len(ds), Config{Window: 28})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	fires, _ := feed(t, tr, ds, r, 120)
	if fires != 0 {
		t.Fatalf("stationary workload fired drift %d times", fires)
	}
	st := tr.State()
	if st.Periods != 120 || st.Fires != 0 {
		t.Fatalf("state = %+v, want 120 periods and 0 fires", st)
	}
	if st.Checks == 0 {
		t.Fatal("detector never ran on a stationary workload — the no-drift result is vacuous")
	}
	if st.Last == nil || st.Last.Drift {
		t.Fatalf("last decision = %+v, want a non-drift decision", st.Last)
	}
}

// TestStepChangeFires steps every type's mean to ~2.5× partway through;
// drift must fire within one window of the step.
func TestStepChangeFires(t *testing.T) {
	ds := model(t)
	const window = 28
	tr := newTracker(t, len(ds), Config{Window: window})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	const stationaryDays = 40
	if fires, _ := feed(t, tr, ds, r, stationaryDays); fires != 0 {
		t.Fatalf("fired %d times before the step", fires)
	}
	shifted := []dist.Distribution{
		dist.NewGaussian(25, 4, 0.995),
		dist.NewGaussian(15, 3, 0.995),
		dist.NewGaussian(8, 2, 0.995),
	}
	fires, first := feed(t, tr, shifted, r, window)
	if fires == 0 {
		t.Fatal("step change never fired drift within one window")
	}
	if lag := first - stationaryDays; lag > window {
		t.Fatalf("first firing at period %d, %d periods after the step (window %d)", first, lag, window)
	}
	// The firing decision must carry distance evidence on some type.
	st := tr.State()
	if st.Fires != fires || st.LastFirePeriod < stationaryDays {
		t.Fatalf("state fires=%d lastFire=%d, want %d fires after period %d",
			st.Fires, st.LastFirePeriod, fires, stationaryDays)
	}
}

// TestSingleTypeDrift checks per-type sensitivity: only one of three
// types drifts, and the firing decision blames it.
func TestSingleTypeDrift(t *testing.T) {
	ds := model(t)
	tr := newTracker(t, len(ds), Config{Window: 20})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	drifted := []dist.Distribution{ds[0], dist.NewGaussian(18, 2, 0.995), ds[2]}
	fires, _ := feed(t, tr, drifted, r, 40)
	if fires == 0 {
		t.Fatal("single-type drift never fired")
	}
	st := tr.State()
	last := st.Last
	if last == nil || !last.Drift {
		// The last decision may post-date the firing under hysteresis;
		// dig out the scores from the firing via a fresh run instead.
		t.Fatalf("expected the last decision to carry the firing, got %+v", last)
	}
	if len(last.Scores) != 3 {
		t.Fatalf("scores cover %d types, want 3", len(last.Scores))
	}
	if last.Scores[1].TV < 0 {
		t.Fatal("drifted type was never escalated to the distance stage")
	}
	if last.Scores[0].TV >= 0 && last.Scores[0].TV >= last.Scores[1].TV {
		t.Fatalf("stationary type scored tv %.3f ≥ drifted type's %.3f",
			last.Scores[0].TV, last.Scores[1].TV)
	}
}

// TestHysteresisMinInterval keeps feeding loudly drifted data after a
// firing: the next firing must wait out MinInterval even though every
// check would fire on its own.
func TestHysteresisMinInterval(t *testing.T) {
	ds := model(t)
	const minInterval = 10
	tr := newTracker(t, len(ds), Config{Window: 12, MinInterval: minInterval, Cooldown: -1})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	shifted := []dist.Distribution{
		dist.NewGaussian(30, 3, 0.995),
		dist.NewGaussian(20, 3, 0.995),
		dist.NewGaussian(12, 2, 0.995),
	}
	var firePeriods []int
	counts := make([]int, len(ds))
	for day := 0; day < 60; day++ {
		for i, d := range shifted {
			counts[i] = d.Sample(r)
		}
		dec, err := tr.Observe(counts)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Drift {
			firePeriods = append(firePeriods, dec.Period)
		}
	}
	if len(firePeriods) < 2 {
		t.Fatalf("wanted repeated firings under sustained drift, got %v", firePeriods)
	}
	for i := 1; i < len(firePeriods); i++ {
		if gap := firePeriods[i] - firePeriods[i-1]; gap < minInterval {
			t.Fatalf("firings %d and %d only %d periods apart, min interval %d",
				firePeriods[i-1], firePeriods[i], gap, minInterval)
		}
	}
}

// TestCooldownAfterInstall installs a fresh model right after a firing
// (as an accepted refit does) and verifies detection stays quiet for
// the cooldown even though the window still disagrees with the new
// reference model.
func TestCooldownAfterInstall(t *testing.T) {
	ds := model(t)
	const cooldown = 15
	tr := newTracker(t, len(ds), Config{Window: 12, MinInterval: -1, Cooldown: cooldown})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	shifted := []dist.Distribution{
		dist.NewGaussian(30, 3, 0.995),
		dist.NewGaussian(20, 3, 0.995),
		dist.NewGaussian(12, 2, 0.995),
	}
	fires, first := feed(t, tr, shifted, r, 30)
	if fires == 0 {
		t.Fatal("drift never fired")
	}
	// Accepted refit: install a model that still disagrees with the
	// window (the old one again), so only cooldown keeps things quiet.
	if err := tr.SetInstalled(ds, 2); err != nil {
		t.Fatal(err)
	}
	installPeriod := tr.State().Periods
	counts := make([]int, len(ds))
	for day := 0; day < cooldown+5; day++ {
		for i, d := range shifted {
			counts[i] = d.Sample(r)
		}
		dec, err := tr.Observe(counts)
		if err != nil {
			t.Fatal(err)
		}
		if since := dec.Period - installPeriod; dec.Drift && since < cooldown {
			t.Fatalf("fired %d periods after install, inside the %d-period cooldown", since, cooldown)
		}
	}
	if st := tr.State(); st.Fires < 2 {
		t.Fatalf("drift never re-fired once the cooldown elapsed (fires=%d, first=%d)", st.Fires, first)
	}
}

// TestGatesAndValidation covers the remaining Observe gates and the
// constructor/config validation paths.
func TestGatesAndValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Fatal("New accepted 0 types")
	}
	if _, err := New(2, Config{Window: -3}); err == nil {
		t.Fatal("New accepted a negative window")
	}
	if _, err := New(2, Config{Window: 4, MinFill: 9}); err == nil {
		t.Fatal("New accepted MinFill > Window")
	}
	if _, err := New(2, Config{Coverage: 2}); err == nil {
		t.Fatal("New accepted coverage 2")
	}

	tr := newTracker(t, 2, Config{Window: 8, Cadence: 4})
	if _, err := tr.Observe([]int{1, 2, 3}); err == nil {
		t.Fatal("Observe accepted a mis-sized counts vector")
	}
	if _, err := tr.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded on an empty window")
	}
	if err := tr.SetInstalled([]dist.Distribution{dist.NewPoint(1)}, 1); err == nil {
		t.Fatal("SetInstalled accepted a mis-sized model")
	}

	// Without an installed model, observations are recorded but never
	// checked.
	dec, err := tr.Observe([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Checked || dec.Drift {
		t.Fatalf("decision %+v before any installed model", dec)
	}
	ds := []dist.Distribution{dist.NewGaussian(3, 1, 0.99), dist.NewGaussian(4, 1, 0.99)}
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	// Cadence 4: periods 2 and 3 are off cadence.
	for p := 2; p <= 3; p++ {
		if dec, err = tr.Observe([]int{3, 4}); err != nil {
			t.Fatal(err)
		}
		if dec.Checked {
			t.Fatalf("period %d checked off cadence", dec.Period)
		}
	}
	// Snapshot now works and is rebuildable.
	specs, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Kind != "gaussian" {
		t.Fatalf("specs = %+v", specs)
	}
	if _, err := specs[0].Build(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroValueDetectorDefaults pins that a zero-valued (or partially
// configured) DistanceDetector resolves missing thresholds to the
// defaults instead of escalating and firing on every check.
func TestZeroValueDetectorDefaults(t *testing.T) {
	ds := model(t)
	tr := newTracker(t, len(ds), Config{Window: 28, Detector: &DistanceDetector{}})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	if fires, _ := feed(t, tr, ds, r, 120); fires != 0 {
		t.Fatalf("zero-valued detector fired %d times on a stationary workload", fires)
	}
	if st := tr.State(); st.Checks == 0 {
		t.Fatal("detector never ran")
	}
	// It still detects a real step change.
	shifted := []dist.Distribution{
		dist.NewGaussian(25, 4, 0.995),
		dist.NewGaussian(15, 3, 0.995),
		dist.NewGaussian(8, 2, 0.995),
	}
	if fires, _ := feed(t, tr, shifted, r, 28); fires == 0 {
		t.Fatal("zero-valued detector never fired on a step change")
	}
}

// TestDistanceHelpers pins the distance primitives the detector ranks
// drift by.
func TestDistanceHelpers(t *testing.T) {
	g := dist.NewGaussian(10, 2, 0.995)
	if tv := TotalVariation(g, g); tv != 0 {
		t.Fatalf("TV(g, g) = %v, want 0", tv)
	}
	if kl := SymmetrizedKL(g, g); kl != 0 {
		t.Fatalf("symKL(g, g) = %v, want 0", kl)
	}
	a, b := dist.NewPoint(2), dist.NewPoint(9)
	if tv := TotalVariation(a, b); math.Abs(tv-1) > 1e-12 {
		t.Fatalf("TV of disjoint point masses = %v, want 1", tv)
	}
	near := dist.NewGaussian(10.2, 2, 0.995)
	far := dist.NewGaussian(16, 2, 0.995)
	if TotalVariation(g, near) >= TotalVariation(g, far) {
		t.Fatal("TV is not monotone in mean shift")
	}
	if SymmetrizedKL(g, near) >= SymmetrizedKL(g, far) {
		t.Fatal("symKL is not monotone in mean shift")
	}
	// Variance over the table must match the gaussian's parameters
	// loosely (discretization + truncation shave a little).
	if v := Variance(g); math.Abs(v-4) > 0.5 {
		t.Fatalf("Variance(N(10,2²)) = %v, want ≈ 4", v)
	}
	if v := Variance(dist.NewPoint(5)); v != 0 {
		t.Fatalf("Variance(point) = %v, want 0", v)
	}
}

// TestTrackerConcurrent hammers Observe/State/Snapshot concurrently;
// meaningful under -race (make race).
func TestTrackerConcurrent(t *testing.T) {
	ds := model(t)
	tr := newTracker(t, len(ds), Config{Window: 16, Cadence: 2})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	// Pre-fill so Snapshot never errors.
	if _, err := tr.Observe([]int{10, 6, 3}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			counts := make([]int, len(ds))
			for i := 0; i < 500; i++ {
				for j, d := range ds {
					counts[j] = d.Sample(r)
				}
				if _, err := tr.Observe(counts); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = tr.State()
				if _, err := tr.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countingDist counts the PMF evaluations made on it.
type countingDist struct {
	dist.Distribution
	calls *int
}

func (c countingDist) PMF(n int) float64 {
	*c.calls++
	return c.Distribution.PMF(n)
}

// TestDistancesSkipSupportGap pins that the distances sum over the two
// supports only: bit for bit what a term-by-term pass over the whole
// range from the lower support's start to the upper one's end gives,
// with no PMF call in the gap, so a far-off window costs no more than a
// near one.
func TestDistancesSkipSupportGap(t *testing.T) {
	span := func(p, q dist.Distribution, term func(n int) float64) float64 {
		plo, phi := p.Support()
		qlo, qhi := q.Support()
		var sum float64
		for n := min(plo, qlo); n <= max(phi, qhi); n++ {
			sum += term(n)
		}
		return sum
	}
	g := dist.NewGaussian(10, 2, 0.995)
	for _, q := range []dist.Distribution{
		g, dist.NewGaussian(12, 3, 0.995), dist.NewPoint(17), dist.NewPoint(18),
		dist.NewPoint(400), dist.NewGaussian(900, 40, 0.995), dist.NewPoint(0),
	} {
		for _, pq := range [][2]dist.Distribution{{g, q}, {q, g}} {
			p, q := pq[0], pq[1]
			tv := span(p, q, func(n int) float64 { return math.Abs(p.PMF(n) - q.PMF(n)) }) / 2
			kl := span(p, q, func(n int) float64 {
				pp, qq := p.PMF(n)+klSmooth, q.PMF(n)+klSmooth
				return (pp - qq) * math.Log(pp/qq)
			})
			plo, phi := p.Support()
			qlo, qhi := q.Support()
			if got := TotalVariation(p, q); math.Float64bits(got) != math.Float64bits(tv) {
				t.Errorf("TV over supports [%d, %d], [%d, %d] = %v, full span gives %v", plo, phi, qlo, qhi, got, tv)
			}
			if got := SymmetrizedKL(p, q); math.Float64bits(got) != math.Float64bits(kl) {
				t.Errorf("symKL over supports [%d, %d], [%d, %d] = %v, full span gives %v", plo, phi, qlo, qhi, got, kl)
			}
		}
	}

	calls := 0
	far := countingDist{dist.NewPoint(2_000_000_000), &calls}
	near := countingDist{g, &calls}
	if tv := TotalVariation(near, far); math.Abs(tv-1) > 1e-12 {
		t.Fatalf("TV of disjoint supports = %v, want 1", tv)
	}
	SymmetrizedKL(near, far)
	lo, hi := g.Support()
	if want := 2 * 2 * (hi - lo + 2); calls > want {
		t.Fatalf("distances made %d PMF calls across a gap of 2·10⁹, want at most %d", calls, want)
	}
}

// TestObserveRejectsNegativeCount pins that a negative count is
// rejected before any window is touched: the error means nothing was
// recorded, so the tracker's state is unchanged.
func TestObserveRejectsNegativeCount(t *testing.T) {
	ds := model(t)
	tr := newTracker(t, len(ds), Config{Window: 10})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	feed(t, tr, ds, rand.New(rand.NewSource(3)), 6)
	before := tr.State()
	for _, counts := range [][]int{{10, -50, 3}, {-1, 6, 3}, {10, 6}} {
		if _, err := tr.Observe(counts); err == nil {
			t.Fatalf("Observe(%v) accepted invalid counts", counts)
		}
		if after := tr.State(); !reflect.DeepEqual(after, before) {
			t.Fatalf("Observe(%v) was rejected but changed the state:\nbefore %+v\nafter  %+v", counts, before, after)
		}
	}
}

// TestObserveDetectorFailureIsRecorded pins the other half of the
// Observe contract: a count the detector cannot score (here one so
// large that the window's Gaussian snapshot exceeds the table cap) is
// still a valid observation. It is recorded, the period advances, and
// the failure comes back as an unchecked decision, not an error — as
// does every valid observation while the count stays in the window.
func TestObserveDetectorFailureIsRecorded(t *testing.T) {
	ds := model(t)
	const window = 10
	tr := newTracker(t, len(ds), Config{Window: window, MinInterval: -1, Cooldown: -1})
	if err := tr.SetInstalled(ds, 1); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	feed(t, tr, ds, r, window)
	period := tr.State().Periods

	dec, err := tr.Observe([]int{10, 2_000_000_000, 3})
	if err != nil {
		t.Fatalf("Observe with a huge count returned an error: %v", err)
	}
	period++
	if dec.Period != period || dec.Checked || dec.Drift || !strings.HasPrefix(dec.Reason, "detector failed: ") {
		t.Fatalf("decision = %+v, want an unchecked period %d with a detector-failure reason", dec, period)
	}
	if st := tr.State(); st.Periods != period || st.Last == nil || st.Last.Reason != dec.Reason {
		t.Fatalf("state = %+v, want period %d recorded with the failed decision", st, period)
	}
	counts := make([]int, len(ds))
	for i := 0; i < 2*window; i++ {
		for k := range counts {
			counts[k] = ds[k].Sample(r)
		}
		dec, err := tr.Observe(counts)
		if err != nil {
			t.Fatalf("valid observe %d after the huge count returned an error: %v", i+1, err)
		}
		period++
		if dec.Period != period {
			t.Fatalf("valid observe %d: period %d, want %d", i+1, dec.Period, period)
		}
		if inWindow := i < window-1; inWindow != strings.HasPrefix(dec.Reason, "detector failed: ") {
			t.Fatalf("valid observe %d (huge count in window: %v): reason %q", i+1, inWindow, dec.Reason)
		}
	}
}
