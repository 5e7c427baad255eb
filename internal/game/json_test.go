package game

import (
	"strings"
	"testing"
)

func TestDecodeJSONTemplate(t *testing.T) {
	g, err := DecodeJSON(strings.NewReader(TemplateJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Types) != 2 || len(g.Entities) != 2 || len(g.Victims) != 2 {
		t.Fatalf("template shape %d/%d/%d", len(g.Types), len(g.Entities), len(g.Victims))
	}
	if !g.AllowNoAttack {
		t.Fatal("template should allow refraining")
	}
	if g.Types[1].Cost != 2 {
		t.Fatalf("cost = %v", g.Types[1].Cost)
	}
	// Type 1 attack on payroll raises type index 0 deterministically.
	if g.Attacks[0][0].TypeProbs[0] != 1 || g.Attacks[0][0].TypeProbs[1] != 0 {
		t.Fatalf("attack probs = %v", g.Attacks[0][0].TypeProbs)
	}
}

func TestDecodeJSONStochasticProbs(t *testing.T) {
	src := `{
	  "types": [
	    {"name": "A", "cost": 1, "dist": {"kind": "point", "n": 2}},
	    {"name": "B", "cost": 1, "dist": {"kind": "point", "n": 2}}
	  ],
	  "entities": [{"name": "e", "p_attack": 1}],
	  "victims": ["v"],
	  "attacks": [[{"type_probs": [0.6, 0.3], "benefit": 4, "penalty": 5, "cost": 1}]]
	}`
	g, err := DecodeJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Attacks[0][0].TypeProbs[0] != 0.6 {
		t.Fatalf("probs = %v", g.Attacks[0][0].TypeProbs)
	}
}

func TestDecodeJSONBenignAttack(t *testing.T) {
	src := `{
	  "types": [{"name": "A", "cost": 1, "dist": {"kind": "point", "n": 1}}],
	  "entities": [{"name": "e", "p_attack": 1}],
	  "victims": ["v"],
	  "attacks": [[{"benefit": 0, "penalty": 0, "cost": 1}]]
	}`
	g, err := DecodeJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Attacks[0][0].TypeProbs[0] != 0 {
		t.Fatal("omitted type should mean benign")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"garbage", "{nope"},
		{"unknown field", `{"bogus": 1}`},
		{"bad dist kind", `{
		  "types": [{"name": "A", "cost": 1, "dist": {"kind": "weird"}}],
		  "entities": [{"name": "e", "p_attack": 1}],
		  "victims": ["v"],
		  "attacks": [[{"type": 1, "benefit": 1, "penalty": 1, "cost": 1}]]
		}`},
		{"type out of range", `{
		  "types": [{"name": "A", "cost": 1, "dist": {"kind": "point", "n": 1}}],
		  "entities": [{"name": "e", "p_attack": 1}],
		  "victims": ["v"],
		  "attacks": [[{"type": 5, "benefit": 1, "penalty": 1, "cost": 1}]]
		}`},
		{"invalid game shape", `{
		  "types": [{"name": "A", "cost": 1, "dist": {"kind": "point", "n": 1}}],
		  "entities": [{"name": "e", "p_attack": 1}],
		  "victims": ["v1", "v2"],
		  "attacks": [[{"type": 1, "benefit": 1, "penalty": 1, "cost": 1}]]
		}`},
	}
	for _, tc := range cases {
		if _, err := DecodeJSON(strings.NewReader(tc.src)); err == nil {
			t.Errorf("%s: decode accepted", tc.name)
		}
	}
}

// Games whose count models reach MaxInt. Both once decoded and
// validated, and the first solve never returned: the exact enumerator's
// n <= hi loop wrapped at hi = MaxInt, before any context check.
const (
	overCapPointJSON = `{"types":[{"name":"A","cost":1,"dist":{"kind":"point","n":9223372036854775807}}],` +
		`"entities":[{"name":"e","p_attack":1}],"victims":["v"],"attacks":[[{"type":1,"benefit":1,"penalty":1,"cost":1}]]}`
	overCapEmpiricalJSON = `{"types":[{"name":"A","cost":1,"dist":{"kind":"empirical","counts":[9223372036854775806,9223372036854775807]}}],` +
		`"entities":[{"name":"e","p_attack":1}],"victims":["v"],"attacks":[[{"type":1,"benefit":1,"penalty":1,"cost":1}]]}`
)

// TestDecodeJSONRejectsCountsAboveCap is the regression test for those
// games: the decoder must refuse them, citing the count cap.
func TestDecodeJSONRejectsCountsAboveCap(t *testing.T) {
	for _, src := range []string{overCapPointJSON, overCapEmpiricalJSON} {
		_, err := DecodeJSON(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), "count cap") {
			t.Errorf("decode of %s: err %v, want the count cap", src, err)
		}
	}
}
