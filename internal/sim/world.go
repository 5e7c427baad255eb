package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"auditgame"
)

// World wires the modules into the closed loop and owns the metric
// collection. One period p is a chain of kernel events:
//
//	p − 0.5  inject   drift injector mutates the traffic generators
//	p        period   traffic → attacker → Select → Observe → metrics
//	p + 0.5  refit    the strategy's re-solve, installed for p+1
//
// The world evaluates every period's serving policy and the reference
// solve — one CGGS solve at the true model's caps, a heuristic and not
// an optimum — on the *true* model in force that period — the
// traffic generator's scaled specs — through instances sharing one
// frozen realization bank (common random numbers), so regret
// differences across strategies are policy differences, not sampling
// noise.
type World struct {
	kern     *Kernel
	traffic  *Traffic
	host     *Host
	attacker *Attacker

	budget   float64
	bankSize int
	bankSeed int64

	baseGame   *auditgame.Game
	trafficRNG *rand.Rand

	// trueInsts caches the per-model evaluation instance; optLoss the
	// reference loss per model; servLoss the serving policy's loss
	// per (model, policy version).
	trueInsts map[string]*auditgame.Instance
	optLoss   map[string]float64
	servLoss  map[string]float64

	points    []PeriodPoint
	cumRegret float64
	err       error

	ctx context.Context
}

// fail records the first error; later events become no-ops so the
// kernel drains deterministically and Run reports the root cause.
func (w *World) fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// modelAt resolves period p's true model: its canonical key (the
// per-type dist.Spec keys joined by ';') and the shared evaluation
// instance.
func (w *World) modelAt(p int) (*auditgame.Instance, string, error) {
	specs, err := w.traffic.SpecsAt(p)
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	for i, s := range specs {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(s.Key())
	}
	key := sb.String()
	if in, ok := w.trueInsts[key]; ok {
		return in, key, nil
	}
	ng := *w.baseGame
	ng.Types = append([]auditgame.AlertType(nil), w.baseGame.Types...)
	for i, s := range specs {
		d, err := s.Build()
		if err != nil {
			return nil, "", fmt.Errorf("sim: true model for period %d, type %d: %w", p, i, err)
		}
		ng.Types[i].Dist = d
	}
	in, err := auditgame.NewInstance(&ng, w.budget, auditgame.SourceOptions{
		BankSize: w.bankSize,
		Seed:     w.bankSeed,
	})
	if err != nil {
		return nil, "", err
	}
	w.trueInsts[key] = in
	return in, key, nil
}

// reference returns the reference loss for the model behind key: one
// CGGS solve of a fresh session at the true model's caps, directly on
// the true instance — a heuristic, not an optimum — evaluated
// through the same full best-response Loss as the serving policy so
// the two sides of the regret are commensurable.
func (w *World) reference(in *auditgame.Instance, key string) (float64, error) {
	if l, ok := w.optLoss[key]; ok {
		return l, nil
	}
	aud, err := auditgame.NewAuditor(auditgame.AuditorConfig{
		Instance: in,
		Method:   auditgame.MethodCGGS,
	})
	if err != nil {
		return 0, err
	}
	res, err := aud.SolveDetailed(w.ctx)
	if err != nil {
		return 0, fmt.Errorf("sim: reference solve: %w", err)
	}
	l := auditgame.Loss(in, res.Mixed)
	w.optLoss[key] = l
	return l, nil
}

// servingLoss evaluates the installed policy on the true model,
// cached per (model, policy version).
func (w *World) servingLoss(in *auditgame.Instance, key string, pol *auditgame.Policy, version uint64) float64 {
	ck := key + "#" + strconv.FormatUint(version, 10)
	if l, ok := w.servLoss[ck]; ok {
		return l
	}
	l := auditgame.Loss(in, mixedOf(pol))
	w.servLoss[ck] = l
	return l
}

// period runs the period-p event body.
func (w *World) period(p int) {
	if w.err != nil {
		return
	}
	in, key, err := w.modelAt(p)
	if err != nil {
		w.fail(err)
		return
	}

	// The attacker observes the policy that served Lag periods ago;
	// detection is predicted under the one serving now.
	obsPeriod := p - w.attacker.Lag()
	if obsPeriod < 0 {
		obsPeriod = 0
	}
	lagged, _ := w.host.PolicyAt(obsPeriod)
	serving, version := w.host.PolicyAt(p)

	strike, err := w.attacker.Period(in, lagged, serving)
	if err != nil {
		w.fail(err)
		return
	}

	counts, err := w.traffic.Sample(p, w.trafficRNG)
	if err != nil {
		w.fail(err)
		return
	}
	if strike != nil && strike.Type >= 0 {
		counts[strike.Type]++
	}

	sel, selVersion, err := w.host.Select(counts)
	if err != nil {
		w.fail(err)
		return
	}
	if selVersion != version {
		w.fail(fmt.Errorf("sim: period %d served version %d but install history says %d", p, selVersion, version))
		return
	}
	detected := w.attacker.Detect(strike, counts, sel)

	dec, wantRefit, err := w.host.Observe(p, counts)
	if err != nil {
		w.fail(err)
		return
	}

	opt, err := w.reference(in, key)
	if err != nil {
		w.fail(err)
		return
	}
	loss := w.servingLoss(in, key, serving, version)
	regret := loss - opt
	w.cumRegret += regret

	pt := PeriodPoint{
		Period:        p,
		Loss:          loss,
		OptLoss:       opt,
		Regret:        regret,
		CumRegret:     w.cumRegret,
		PolicyVersion: version,
		Drift:         dec.Drift,
	}
	if strike != nil {
		pt.Mounted = true
		pt.Raised = strike.Type >= 0
		pt.Detected = detected
		pt.Predicted = strike.Predicted
	}
	w.points = append(w.points, pt)

	if wantRefit {
		if err := w.kern.Schedule(float64(p)+0.5, "refit", func() { w.refit(p) }); err != nil {
			w.fail(err)
		}
	}
}

// refit runs the strategy's re-solve after period p; an install serves
// from period p+1.
func (w *World) refit(p int) {
	if w.err != nil {
		return
	}
	out, err := w.host.Refit(w.ctx, p+1)
	if err != nil {
		w.fail(fmt.Errorf("sim: refit after period %d: %w", p, err))
		return
	}
	w.points[p].Refit = out.Outcome
}

// mixedOf rebuilds the solver-facing mixed strategy from a deployable
// artifact so it can be re-evaluated under an arbitrary model.
func mixedOf(p *auditgame.Policy) *auditgame.MixedPolicy {
	m := &auditgame.MixedPolicy{
		Q:          make([]auditgame.Ordering, len(p.Orderings)),
		Po:         append([]float64(nil), p.Probs...),
		Thresholds: append(auditgame.Thresholds(nil), p.Thresholds...),
		Objective:  p.ExpectedLoss,
	}
	for i, o := range p.Orderings {
		m.Q[i] = append(auditgame.Ordering(nil), o...)
	}
	return m
}

// recovered reports whether a period's instantaneous regret has worked
// off the injection's spike: back under half the running
// post-injection peak — the spike's half-life — or within 5% of the
// reference loss magnitude (an absolute epsilon covers near-zero
// references). The peak-relative term matters because a refit from a
// finite observation window carries irreducible model-estimation
// error — regret settles at a small positive floor, and
// time-to-recover measures the decay of the spike, not the distance
// to an unreachable zero.
func recovered(pt PeriodPoint, peak float64) bool {
	tol := math.Max(0.5*peak, 0.05*math.Abs(pt.OptLoss))
	return pt.Regret <= math.Max(tol, 1e-6)
}
