// Package game implements the Stackelberg audit game of Yan et al. (ICDE
// 2018): the auditor commits to a randomized priority ordering over alert
// types plus deterministic per-type budget thresholds; each potential
// attacker then picks the victim (or refrains) that maximizes their
// expected utility. The game is zero-sum, so the auditor's optimal policy
// for a fixed threshold vector is the solution of a minimax linear program
// (paper Eq. 5).
//
// This package holds the model itself — alert types, entities, victims,
// the event→alert map P^t_ev, the detection-probability machinery of
// Eqs. 1–3, and the LP construction. Search algorithms (brute force, CGGS,
// ISHM, baselines) live in internal/solver.
package game

import (
	"fmt"

	"auditgame/internal/dist"
)

// AlertType describes one alert category raised by the TDMT.
type AlertType struct {
	// Name labels the type (e.g. "Same Last Name").
	Name string
	// Cost is C_t, the budget consumed by auditing one alert of this
	// type.
	Cost float64
	// Dist is the distribution of the benign per-period alert count Z_t.
	Dist dist.Distribution
}

// Entity is a potential adversary e ∈ E.
type Entity struct {
	// Name labels the entity (e.g. an employee ID).
	Name string
	// PAttack is p_e, the probability the entity considers attacking at
	// all. It weights the entity's term in the auditor's objective.
	PAttack float64
}

// Attack describes the consequences of the event ⟨e,v⟩ when mounted as an
// attack.
type Attack struct {
	// TypeProbs[t] is P^t_ev, the probability the event raises an alert
	// of type t. The entries must be non-negative and sum to at most 1;
	// the residual mass is "no alert raised".
	TypeProbs []float64
	// Benefit is R(⟨e,v⟩), the adversary's gain when undetected.
	Benefit float64
	// Penalty is M(⟨e,v⟩) ≥ 0, the magnitude of the adversary's loss
	// when captured. It enters the utility negatively:
	// Ua = −Pat·M + (1−Pat)·R − K.
	Penalty float64
	// Cost is K(⟨e,v⟩), the cost of mounting the attack.
	Cost float64
}

// Game is a complete instance of the alert-prioritization game.
type Game struct {
	// Types are the alert categories T.
	Types []AlertType
	// Entities are the potential adversaries E.
	Entities []Entity
	// Victims are the records/files V. Victims[v] is a display name.
	Victims []string
	// Attacks[e][v] describes event ⟨e,v⟩.
	Attacks [][]Attack
	// AllowNoAttack adds the "refrain" option with utility 0 to every
	// adversary (paper §II-B: "at most one, if V contains an option of
	// not attacking"). The real-data scenarios (§V) use it; Syn A does
	// not.
	AllowNoAttack bool
}

// Validate checks structural consistency and returns a descriptive error
// for the first violation found.
func (g *Game) Validate() error {
	if len(g.Types) == 0 {
		return fmt.Errorf("game: no alert types")
	}
	if len(g.Entities) == 0 {
		return fmt.Errorf("game: no entities")
	}
	if len(g.Victims) == 0 {
		return fmt.Errorf("game: no victims")
	}
	if len(g.Attacks) != len(g.Entities) {
		return fmt.Errorf("game: Attacks has %d rows, want |E| = %d", len(g.Attacks), len(g.Entities))
	}
	for t, at := range g.Types {
		if at.Cost <= 0 {
			return fmt.Errorf("game: type %d (%s) has non-positive audit cost %v", t, at.Name, at.Cost)
		}
		if at.Dist == nil {
			return fmt.Errorf("game: type %d (%s) has nil count distribution", t, at.Name)
		}
	}
	for e, ent := range g.Entities {
		if ent.PAttack < 0 || ent.PAttack > 1 {
			return fmt.Errorf("game: entity %d (%s) has p_e = %v outside [0,1]", e, ent.Name, ent.PAttack)
		}
		if len(g.Attacks[e]) != len(g.Victims) {
			return fmt.Errorf("game: Attacks[%d] has %d victims, want %d", e, len(g.Attacks[e]), len(g.Victims))
		}
		for v, a := range g.Attacks[e] {
			if len(a.TypeProbs) != len(g.Types) {
				return fmt.Errorf("game: Attacks[%d][%d].TypeProbs has %d entries, want |T| = %d",
					e, v, len(a.TypeProbs), len(g.Types))
			}
			var sum float64
			for t, p := range a.TypeProbs {
				if p < 0 || p > 1 {
					return fmt.Errorf("game: Attacks[%d][%d].TypeProbs[%d] = %v outside [0,1]", e, v, t, p)
				}
				sum += p
			}
			if sum > 1+1e-9 {
				return fmt.Errorf("game: Attacks[%d][%d].TypeProbs sums to %v > 1", e, v, sum)
			}
			if a.Penalty < 0 {
				return fmt.Errorf("game: Attacks[%d][%d].Penalty = %v must be ≥ 0", e, v, a.Penalty)
			}
		}
	}
	return nil
}

// NumTypes returns |T|.
func (g *Game) NumTypes() int { return len(g.Types) }

// Dists returns the per-type count distributions in type order.
func (g *Game) Dists() []dist.Distribution {
	ds := make([]dist.Distribution, len(g.Types))
	for i, t := range g.Types {
		ds[i] = t.Dist
	}
	return ds
}

// ThresholdCaps returns the per-type approximate upper bounds on the audit
// thresholds b_t: the budget at which F_t(b_t/C_t) ≈ 1, i.e. the top of the
// truncated count support times the audit cost (paper §III-B: "setting the
// thresholds above such bounds would lead to negligible improvement").
// The support top is floored at one alert: an attack raises its own alert
// (Eq. 1's Z′_t = max(Z_t, 1)), so a type whose model raised none — a
// point mass at 0 — still gets one audit instead of a zero cap that would
// leave it never audited.
func (g *Game) ThresholdCaps() []float64 {
	caps := make([]float64, len(g.Types))
	for t, at := range g.Types {
		_, hi := at.Dist.Support()
		caps[t] = float64(max(hi, 1)) * at.Cost
	}
	return caps
}

// DeterministicAttack builds an Attack that raises alert type t with
// probability 1 (the rule-based common case of §IV-A). Pass t < 0 for a
// benign access that never raises an alert.
func DeterministicAttack(numTypes, t int, benefit, penalty, cost float64) Attack {
	probs := make([]float64, numTypes)
	if t >= 0 {
		probs[t] = 1
	}
	return Attack{TypeProbs: probs, Benefit: benefit, Penalty: penalty, Cost: cost}
}
