package sim

import (
	"fmt"
	"math/rand"

	"auditgame"
)

// The adaptive attacker closes the strategic half of the loop: each
// period it best-responds — over every ⟨entity, victim⟩ event and the
// refrain option — to the policy it can observe, which is the policy
// that was *serving* Lag periods ago. Until the host refits, the
// attacker's observation matches the installed policy and the model's
// Stackelberg assumption holds exactly; right after an install the
// attacker is briefly best-responding to a stale policy, which is the
// transient the time-to-recover metric watches.

// AttackerConfig tunes the adaptive attacker.
type AttackerConfig struct {
	// Lag is the observation lag in periods: at period p the attacker
	// best-responds to the policy serving at period p−Lag (clamped to
	// the initial policy). 0 = omniscient.
	Lag int
	// PMount is the per-period probability the attacker acts at all
	// (an attack opportunity arises). Zero means 1.
	PMount float64
}

// Strike is one period's attack decision: the chosen event, the alert
// type it raised (−1 for none), and the model-predicted detection
// probability under the serving policy.
type Strike struct {
	E, V      int
	Type      int
	Predicted float64
}

// Attacker is the adaptive adversary plus its detection accounting.
type Attacker struct {
	cfg AttackerConfig
	rng *rand.Rand

	// Mounted counts attacks launched; Raised those whose event raised
	// an alert; Detected those whose alert the policy audited;
	// Refrained the periods best response was to not attack.
	Mounted, Raised, Detected, Refrained int
	// PredictedSum accumulates the model's Pat over mounted attacks;
	// PredictedSum/Mounted is the model-side detection rate the
	// empirical Detected/Mounted is cross-checked against.
	PredictedSum float64
}

// NewAttacker builds the attacker with its private seeded stream.
func NewAttacker(cfg AttackerConfig, seed int64) (*Attacker, error) {
	if cfg.Lag < 0 {
		return nil, fmt.Errorf("sim: attacker lag must be ≥ 0, got %d", cfg.Lag)
	}
	if cfg.PMount == 0 {
		cfg.PMount = 1
	}
	if cfg.PMount < 0 || cfg.PMount > 1 {
		return nil, fmt.Errorf("sim: attacker PMount %v outside [0,1]", cfg.PMount)
	}
	return &Attacker{cfg: cfg, rng: subRNG(seed, "attacker")}, nil
}

// Lag returns the configured observation lag.
func (a *Attacker) Lag() int { return a.cfg.Lag }

// Period runs one period's attack: best-respond to lagPal, the mixed
// detection vector of the lagged policy under the true current model,
// mount if attacking beats refraining, and sample the raised alert
// type. servPal is the vector of the policy serving now, under the same
// model: the model-side prediction uses it, because detection depends
// on what serves, not on what the attacker believed. Returns nil when
// no attack is mounted this period. g is the true model's game — the
// attacker evaluates detection odds against the workload as it is, not
// as the host models it.
func (a *Attacker) Period(g *auditgame.Game, lagPal, servPal []float64) *Strike {
	if a.cfg.PMount < 1 && a.rng.Float64() >= a.cfg.PMount {
		return nil
	}
	bestE, bestV := -1, -1
	bestUa := 0.0
	if !g.AllowNoAttack {
		bestUa = negInf
	}
	for e := range g.Entities {
		for v := range g.Victims {
			if ua := attackUtility(g.Attacks[e][v], lagPal); ua > bestUa {
				bestUa, bestE, bestV = ua, e, v
			}
		}
	}
	if bestE < 0 {
		a.Refrained++
		return nil
	}
	a.Mounted++

	st := &Strike{E: bestE, V: bestV, Type: -1}
	atk := g.Attacks[bestE][bestV]
	u := a.rng.Float64()
	acc := 0.0
	for t, p := range atk.TypeProbs {
		acc += p
		if u < acc {
			st.Type = t
			break
		}
	}
	if st.Type >= 0 {
		a.Raised++
	}

	for t, p := range atk.TypeProbs {
		if p != 0 {
			st.Predicted += p * servPal[t]
		}
	}
	a.PredictedSum += st.Predicted
	return st
}

// Detect resolves the strike against the period's executed selection,
// replay-style: the attack alert occupies a uniformly random slot of
// its type's (inflated) bin and is detected iff that slot was audited.
// counts must include the injected attack alert.
func (a *Attacker) Detect(st *Strike, counts []int, sel *auditgame.AuditSelection) bool {
	if st == nil || st.Type < 0 || counts[st.Type] == 0 {
		return false
	}
	slot := a.rng.Intn(counts[st.Type])
	for _, idx := range sel.Chosen[st.Type] {
		if idx == slot {
			a.Detected++
			return true
		}
	}
	return false
}

const negInf = -1e308

// attackUtility is Ua(⟨e,v⟩) = R − K − Pat·(M + R) under the mixed
// policy's type-detection vector pal.
func attackUtility(atk auditgame.Attack, pal []float64) float64 {
	var pat float64
	for t, p := range atk.TypeProbs {
		if p != 0 {
			pat += p * pal[t]
		}
	}
	return atk.Benefit - atk.Cost - pat*(atk.Penalty+atk.Benefit)
}

// mixedPal computes the policy's mixture detection vector Σ_q po_q ·
// pal(o_q, b)[t] on the given instance. The world evaluates it once per
// (true model, policy version) and keeps it in the model's record.
func mixedPal(in *auditgame.Instance, pol *auditgame.Policy) ([]float64, error) {
	if pol == nil {
		return nil, fmt.Errorf("sim: mixedPal needs a policy")
	}
	if len(pol.TypeNames) != in.G.NumTypes() {
		return nil, fmt.Errorf("sim: policy covers %d types, instance has %d", len(pol.TypeNames), in.G.NumTypes())
	}
	mix := make([]float64, in.G.NumTypes())
	for qi, o := range pol.Orderings {
		po := pol.Probs[qi]
		if po == 0 {
			continue
		}
		pal := in.Pal(auditgame.Ordering(o), auditgame.Thresholds(pol.Thresholds))
		for t, v := range pal {
			mix[t] += po * v
		}
	}
	return mix, nil
}
