package game

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"auditgame/internal/dist"
)

// referenceClasses is the class construction classify replaced, kept as
// the reference it must match bit for bit: it formats every attack with
// sigKey, dedups and sorts each entity's signatures by that key, and
// keys the class by the joined keys.
func referenceClasses(g *Game) ([]entityClass, []int) {
	in := &Instance{}
	in.entityClass = make([]int, len(g.Entities))
	classOf := make(map[string]int)
	for e := range g.Entities {
		var sigs []signature
		var keys []string
		seen := make(map[string]bool)
		for _, a := range g.Attacks[e] {
			sig := signature{
				probs: a.TypeProbs,
				base:  a.Benefit - a.Cost,
				delta: -(a.Penalty + a.Benefit),
			}
			key := sigKey(sig)
			if seen[key] {
				continue
			}
			seen[key] = true
			sigs = append(sigs, sig)
			keys = append(keys, key)
		}
		sort.Sort(&sigSorter{sigs: sigs, keys: keys})
		classKey := strings.Join(keys, ";")
		ci, ok := classOf[classKey]
		if !ok {
			ci = len(in.classes)
			classOf[classKey] = ci
			in.classes = append(in.classes, entityClass{sigs: sigs})
		}
		in.classes[ci].weight += g.Entities[e].PAttack
		in.entityClass[e] = ci
	}
	return in.classes, in.entityClass
}

// sigSorter orders an entity's signatures by canonical key so identical
// signature sets map to identical class keys regardless of victim order.
type sigSorter struct {
	sigs []signature
	keys []string
}

func (s *sigSorter) Len() int           { return len(s.sigs) }
func (s *sigSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *sigSorter) Swap(i, j int) {
	s.sigs[i], s.sigs[j] = s.sigs[j], s.sigs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// classesDiff reports the first difference between two class
// constructions, comparing every float by its bits.
func classesDiff(got []entityClass, gotOf []int, want []entityClass, wantOf []int) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(gotOf) != len(wantOf) {
		return fmt.Errorf("%d entity assignments, want %d", len(gotOf), len(wantOf))
	}
	for e := range wantOf {
		if gotOf[e] != wantOf[e] {
			return fmt.Errorf("entity %d in class %d, want %d", e, gotOf[e], wantOf[e])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d classes, want %d", len(got), len(want))
	}
	for ci := range want {
		g, w := got[ci], want[ci]
		if !same(g.weight, w.weight) {
			return fmt.Errorf("class %d weight %v, want %v", ci, g.weight, w.weight)
		}
		if len(g.sigs) != len(w.sigs) {
			return fmt.Errorf("class %d has %d signatures, want %d", ci, len(g.sigs), len(w.sigs))
		}
		for s := range w.sigs {
			gs, ws := g.sigs[s], w.sigs[s]
			if !same(gs.base, ws.base) || !same(gs.delta, ws.delta) || len(gs.probs) != len(ws.probs) {
				return fmt.Errorf("class %d signature %d = %+v, want %+v", ci, s, gs, ws)
			}
			for t := range ws.probs {
				if !same(gs.probs[t], ws.probs[t]) {
					return fmt.Errorf("class %d signature %d prob %d = %v, want %v", ci, s, t, gs.probs[t], ws.probs[t])
				}
			}
		}
	}
	return nil
}

// referenceDiff compares g's classes under classify and the reference.
func referenceDiff(g *Game) error {
	got, gotOf := classify(g)
	want, wantOf := referenceClasses(g)
	return classesDiff(got, gotOf, want, wantOf)
}

func att(benefit, penalty, cost float64, probs ...float64) Attack {
	return Attack{TypeProbs: probs, Benefit: benefit, Penalty: penalty, Cost: cost}
}

// classGame assembles a game around hand-written attack rows, one entity
// per row, with p_e = 1/(e+1) so class weights are distinct sums.
func classGame(nT int, rows ...[]Attack) *Game {
	g := &Game{Attacks: rows}
	for t := 0; t < nT; t++ {
		g.Types = append(g.Types, AlertType{Name: fmt.Sprint("t", t), Cost: 1, Dist: dist.NewPoint(1)})
	}
	nV := 0
	for e, row := range rows {
		g.Entities = append(g.Entities, Entity{Name: fmt.Sprint("e", e), PAttack: 1 / float64(e+1)})
		nV = max(nV, len(row))
	}
	for v := 0; v < nV; v++ {
		g.Victims = append(g.Victims, fmt.Sprint("v", v))
	}
	return g
}

// adversarialClassGames are the inputs where interning by float bits and
// identifying by decimal key could part ways.
func adversarialClassGames() []struct {
	name string
	g    *Game
} {
	x, xUp := 0.1, math.Nextafter(0.1, 1) // both format as 0.1
	p, pUp := 0.3, math.Nextafter(0.3, 1)
	third, third12 := 1.0/3, 0.333333333333 // both format as 0.333333333333
	negZero := math.Copysign(0, -1)
	s1, s2, s3 := att(5, 10, 1, 1, 0), att(4, 10, 1, 0, 1), att(3, 2, 0, 0.5, 0.5)
	return []struct {
		name string
		g    *Game
	}{
		{"aliased floats", classGame(2,
			[]Attack{att(x, 1, 0, 1, 0), att(xUp, 1, 0, 1, 0)},
			[]Attack{att(xUp, 1, 0, 1, 0), att(x, 1, 0, 1, 0)},
			[]Attack{att(xUp, 1, 0, 1, 0)},
			[]Attack{att(2, 1, 0, p, 0), att(2, 1, 0, pUp, 0), att(2, 1, 0, 0, third)},
			[]Attack{att(2, 1, 0, 0, third12), att(2, 1, 0, pUp, 0), att(2, 1, 0, p, 0)},
			[]Attack{att(third12, third, 0, 0, 1), att(third, third12, 0, 0, 1)},
		)},
		{"signed zeros", classGame(2,
			[]Attack{att(0, 1, 0, 1, 0)},
			[]Attack{att(negZero, 1, 0, 1, 0)},
			[]Attack{att(negZero, 1, 0, 1, 0), att(0, 1, 0, 1, 0)},
			[]Attack{att(1, 1, 0, negZero, 0), att(1, 1, 0, 0, 0)},
			[]Attack{att(1, 1, 0, 0, 0), att(1, 1, 0, negZero, 0)},
			[]Attack{att(0, negZero, negZero, 1, 0)},
		)},
		{"permuted and duplicated victims", classGame(2,
			[]Attack{s1, s2, s3},
			[]Attack{s3, s1, s2, s1, s3},
			[]Attack{s2, s2},
			[]Attack{s2},
			[]Attack{s2, s3, s1},
		)},
		{"attack-less entities", classGame(2,
			nil,
			[]Attack{s1},
			[]Attack{},
			[]Attack{att(0, 0, 0, 0, 0), att(0, 0, 0, 0, 0)},
			nil,
		)},
	}
}

// TestClassesMatchReference pins classify to the per-attack reference
// construction on Syn A and on the adversarial games.
func TestClassesMatchReference(t *testing.T) {
	if err := referenceDiff(SynA()); err != nil {
		t.Errorf("Syn A: %v", err)
	}
	for _, tc := range adversarialClassGames() {
		if err := referenceDiff(tc.g); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestClassesMergeAliasedSignatures spells out what the reference
// implies on the adversarial games, so a construction that drifted from
// both in the same way would still fail.
func TestClassesMergeAliasedSignatures(t *testing.T) {
	games := adversarialClassGames()
	classes, of := classify(games[0].g)
	// Entities 0–2 share one 0.1-benefit signature; the class keeps the
	// first member's first occurrence, the exact 0.1.
	if of[0] != of[1] || of[1] != of[2] || len(classes[of[0]].sigs) != 1 || classes[of[0]].sigs[0].base != 0.1 {
		t.Fatalf("aliased benefits: classes %v, class 0 %+v", of, classes[of[0]])
	}
	if of[3] != of[4] || len(classes[of[3]].sigs) != 2 {
		t.Fatalf("aliased probabilities: classes %v, class %+v", of, classes[of[3]])
	}
	classes, of = classify(games[1].g)
	if of[0] == of[1] || len(classes[of[2]].sigs) != 2 || of[3] != of[4] || len(classes[of[3]].sigs) != 2 {
		t.Fatalf("signed zeros must stay distinct: classes %v", of)
	}
	classes, of = classify(games[3].g)
	if of[0] != of[2] || of[2] != of[4] || len(classes[of[0]].sigs) != 0 {
		t.Fatalf("attack-less entities: classes %v", of)
	}
}

// decodeClassGame reads a small game from fuzz input: |T| ≤ 4 and
// |E| ≤ 6 from the first two bytes, then per entity its p_e, its attack
// count (≤ 8) and the attacks' floats. A float is a one-byte tag that
// indexes classPalette or, past the palette, prefixes eight raw bytes of
// IEEE bits. Exhausted input reads as zero bytes.
func decodeClassGame(data []byte) *Game {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	float := func() float64 {
		tag := int(next())
		if tag < len(classPalette) {
			return classPalette[tag]
		}
		var raw [8]byte
		for i := range raw {
			raw[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	nT := 1 + int(next())%4
	nE := 1 + int(next())%6
	var rows [][]Attack
	var ps []float64
	for e := 0; e < nE; e++ {
		ps = append(ps, float())
		row := make([]Attack, int(next())%9)
		for v := range row {
			row[v] = Attack{Benefit: float(), Penalty: float(), Cost: float(), TypeProbs: make([]float64, nT)}
			for t := range row[v].TypeProbs {
				row[v].TypeProbs[t] = float()
			}
		}
		rows = append(rows, row)
	}
	g := classGame(nT, rows...)
	for e := range g.Entities {
		g.Entities[e].PAttack = ps[e]
	}
	return g
}

// classPalette holds the values fuzzing most needs to combine: aliases
// under %.12g, both zeros, and non-finite floats.
var classPalette = []float64{
	0, math.Copysign(0, -1), 1, 0.5, 0.1, math.Nextafter(0.1, 1),
	1.0 / 3, 0.333333333333, 2, 10, math.NaN(), math.Inf(1), math.Inf(-1),
}

// encodeClassGame is decodeClassGame's inverse for games within its
// limits, writing every float as raw bits.
func encodeClassGame(g *Game) []byte {
	b := []byte{byte(len(g.Types) - 1), byte(len(g.Entities) - 1)}
	raw := func(f float64) {
		b = append(b, 0xff)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for e, row := range g.Attacks {
		raw(g.Entities[e].PAttack)
		b = append(b, byte(len(row)))
		for _, a := range row {
			raw(a.Benefit)
			raw(a.Penalty)
			raw(a.Cost)
			for _, p := range a.TypeProbs {
				raw(p)
			}
		}
	}
	return b
}

// FuzzInstanceClasses checks classify against the reference
// construction on arbitrary small games. The seeds are Syn A and the
// adversarial games, each checked to decode back to its own classes.
func FuzzInstanceClasses(f *testing.F) {
	seeds := []*Game{SynA()}
	for _, tc := range adversarialClassGames() {
		seeds = append(seeds, tc.g)
	}
	for i, g := range seeds {
		data := encodeClassGame(g)
		got, gotOf := classify(decodeClassGame(data))
		want, wantOf := classify(g)
		if err := classesDiff(got, gotOf, want, wantOf); err != nil {
			f.Fatalf("seed %d does not round-trip: %v", i, err)
		}
		f.Add(data)
	}
	f.Add([]byte{1, 5, 2, 2, 4, 5, 0, 0, 4, 2, 2, 5, 4, 0, 0, 5, 2, 3, 10, 11, 1, 10, 0, 12, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := referenceDiff(decodeClassGame(data)); err != nil {
			t.Fatal(err)
		}
	})
}
