package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"auditgame"
	"auditgame/internal/dist"
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

	// models holds one record per distinct true model, keyed by its
	// specs' dist.Spec.AppendKey bytes, concatenated into keyBuf.
	models map[string]*trueModel
	keyBuf []byte

	points    []PeriodPoint
	cumRegret float64
	err       error

	ctx context.Context
}

// trueModel is the world's record of one distinct true model: the
// evaluation instance built on it (whose count tables the period's
// traffic is drawn from), the reference loss, and what each policy
// version scores on it. A rota alternates between a few models for a
// whole run, so almost every period finds everything it needs here with
// one map lookup.
type trueModel struct {
	in       *auditgame.Instance
	ref      float64
	versions map[uint64]*versionEval
}

// versionEval is one policy version evaluated on one true model: its
// serving loss and the mixed detection vector the attacker reads.
type versionEval struct {
	loss float64
	pal  []float64
}

// fail records the first error; later events become no-ops so the
// kernel drains deterministically and Run reports the root cause.
func (w *World) fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// model returns the record of period p's true model, whose per-type
// specs are specs, building it on the model's first period.
func (w *World) model(p int, specs []dist.Spec) (*trueModel, error) {
	w.keyBuf = w.keyBuf[:0]
	for _, s := range specs {
		w.keyBuf = s.AppendKey(w.keyBuf)
	}
	if m, ok := w.models[string(w.keyBuf)]; ok {
		return m, nil
	}
	ng := *w.baseGame
	ng.Types = append([]auditgame.AlertType(nil), w.baseGame.Types...)
	for i, s := range specs {
		d, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("sim: true model for period %d, type %d: %w", p, i, err)
		}
		ng.Types[i].Dist = d
	}
	in, err := auditgame.NewInstance(&ng, w.budget, auditgame.SourceOptions{
		BankSize: w.bankSize,
		Seed:     w.bankSeed,
	})
	if err != nil {
		return nil, err
	}
	ref, err := w.reference(in)
	if err != nil {
		return nil, err
	}
	m := &trueModel{in: in, ref: ref, versions: make(map[uint64]*versionEval)}
	w.models[string(w.keyBuf)] = m
	return m, nil
}

// reference returns the reference loss on the true instance in: one
// CGGS solve of a fresh session at the true model's caps — a
// heuristic, not an optimum — evaluated through the same full
// best-response Loss as the serving policy so the two sides of the
// regret are commensurable.
func (w *World) reference(in *auditgame.Instance) (float64, error) {
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
	return auditgame.Loss(in, res.Mixed), nil
}

// version returns the evaluation on the model of pol, installed as
// policy version v, computing it on the version's first use here.
func (m *trueModel) version(pol *auditgame.Policy, v uint64) (*versionEval, error) {
	if e, ok := m.versions[v]; ok {
		return e, nil
	}
	pal, err := mixedPal(m.in, pol)
	if err != nil {
		return nil, err
	}
	e := &versionEval{loss: auditgame.Loss(m.in, mixedOf(pol)), pal: pal}
	m.versions[v] = e
	return e, nil
}

// period runs the period-p event body.
func (w *World) period(p int) {
	if w.err != nil {
		return
	}
	specs, err := w.traffic.SpecsAt(p)
	if err != nil {
		w.fail(err)
		return
	}
	m, err := w.model(p, specs)
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
	lagged, err := m.version(w.host.PolicyAt(obsPeriod))
	if err != nil {
		w.fail(err)
		return
	}
	serving, version := w.host.PolicyAt(p)
	served, err := m.version(serving, version)
	if err != nil {
		w.fail(err)
		return
	}
	strike := w.attacker.Period(m.in.G, lagged.pal, served.pal)

	// The benign counts are drawn from the true model's own tables, in
	// type order: one draw of the traffic stream per type.
	counts := make([]int, len(specs))
	for t, at := range m.in.G.Types {
		counts[t] = at.Dist.Sample(w.trafficRNG)
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

	loss, opt := served.loss, m.ref
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
